"""The benchmark's workloads: generated inputs, op lists and correctness gates.

A workload is a list of rounds; a round is a list of ops, and an op is one
``capflow`` command (``simulate`` or ``check-condition``) on a generated
config file.  Every gate bound below is taken unchanged from
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass

# same text as capflow.norms.QUARTIC_A2_TEXT; kept here so the inputs are
# written without importing the program
QUARTIC_A2_TEXT = "((x^2+y^2+z^2)*(x^2+y^2)+z^4)^(1/4)"

CONDITION_SAMPLES = 512


@dataclass(frozen=True)
class Op:
    command: str      # capflow subcommand
    label: str        # unique within a round, names the output directory
    config: dict      # config key -> value text


@dataclass(frozen=True)
class FlowWorkload:
    name: str
    norm_kind: str
    omega0: float
    n_beta: int
    n_lambda: int
    t_end: float
    must_converge: bool

    def config(self, flow_seed: int) -> dict:
        return {
            "norm.kind": self.norm_kind,
            "flow.omega0": repr(self.omega0),
            "flow.epsilon": "0.1",
            "flow.seed": str(flow_seed),
            "flow.t_end": repr(self.t_end),
            "grid.n_beta": str(self.n_beta),
            "grid.n_lambda": str(self.n_lambda),
        }

    def candidates(self, seed: int, round_index: int):
        """Endless stream of flow seeds drawn from the benchmark seed."""
        rng = random.Random(f"{self.name}:{seed}:{round_index}")
        while True:
            yield rng.randrange(2**31)

    def ops(self, seed: int, round_index: int, convex_start) -> list[Op]:
        """One flow, from the first candidate seed whose start is convex.

        Criterion 11 bounds min kappa_F by half its initial value, which
        presumes convex initial data; at epsilon = 0.1 about a third of the
        seeds give a convex perturbed cap.  convex_start(config) decides.
        """
        for flow_seed in self.candidates(seed, round_index):
            config = self.config(flow_seed)
            if convex_start(config):
                return [Op("simulate", "flow", config)]

    def check(self, op: Op, out_dir: str, exit_code: int) -> list[str]:
        """Failed gates of one flow (criteria 7, 9 and 11)."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        s = read_summary(os.path.join(out_dir, "summary.txt"))
        kappa = [float(r["min_kappaF"]) for r in read_trace(out_dir)]
        fails = []
        if s["blow_up"] != "true":
            fails += _bound(s, "V0_relative_drift", 5e-3)
            fails += _bound(s, "V1_increase", 0.0)
            fails += _bound(s, "min_ubar_drop", 1e-4)
            fails += _bound(s, "barrier_violation", 1e-3)
        else:
            fails.append("blow-up")
        if not kappa or kappa[0] <= 0.0 or min(kappa) < 0.5 * kappa[0]:
            fails.append("min_kappaF fell below half its initial value")
        if self.must_converge:
            if s["converged"] != "true":
                fails.append("not converged")
            if not radial_dev(s) <= 1e-2:
                fails.append(f"radial deviation {radial_dev(s):.3e} > 1e-2")
        elif s["converged"] != "true" and float(s["final_t"]) < self.t_end:
            fails.append("stopped before the horizon")
        return fails


@dataclass(frozen=True)
class ConditionWorkload:
    name: str

    # (label, config, expected satisfied, equality case)
    CASES = (
        ("quartic_a3", {"norm.kind": "quartic_a3", "norm.params": "[0.3]",
                        "condition.omega0": "0.3"}, True, True),
        ("custom_a2", {"norm.kind": "custom", "norm.f0_expr": QUARTIC_A2_TEXT,
                       "condition.omega0": "-0.3"}, True, False),
        ("quartic_a2", {"norm.kind": "quartic_a2",
                        "condition.omega0": "0.1"}, False, False),
    )

    def ops(self, seed: int, round_index: int, convex_start=None) -> list[Op]:
        """The three checks; their inputs are fixed, so the seed is unused."""
        return [
            Op("check-condition", label,
               dict(config, **{"condition.samples": str(CONDITION_SAMPLES)}))
            for label, config, _, _ in self.CASES
        ]

    def check(self, op: Op, out_dir: str, exit_code: int) -> list[str]:
        """Failed gates of one check (criterion 3)."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        _, _, expect, equality = next(c for c in self.CASES if c[0] == op.label)
        rep = read_summary(os.path.join(out_dir, "condition_report.txt"))
        fails = []
        if (rep["satisfied"] == "true") != expect:
            fails.append(f"satisfied = {rep['satisfied']}, expected {expect}")
        if rep["both_forms_agree"] != "true":
            fails.append("margin forms disagree")
        if equality and not abs(float(rep["min_margin"])) <= 1e-5:
            fails.append(f"equality-case margin {rep['min_margin']} above 1e-5")
        return fails


WORKLOADS = {
    w.name: w
    for w in (
        FlowWorkload("sphere-converge", "sphere", -math.cos(math.pi / 3),
                     24, 48, 10.0, True),
        FlowWorkload("quartic-horizon", "quartic_a2", -0.3,
                     64, 128, 0.005, False),
        ConditionWorkload("admissibility"),
    )
}

# files an op writes whose bytes must not change under tracing
OUTPUT_FILES = {
    "simulate": ("trace.csv", "summary.txt"),
    "check-condition": ("condition_report.txt",),
}


def write_config(op: Op, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "run.cfg")
    lines = [f"{k} = {v}" for k, v in op.config.items()]
    lines.append(f"output.dir = {out_dir}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_summary(path: str) -> dict:
    """``key = value`` lines as strings."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def read_trace(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "trace.csv"), encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def radial_dev(summary: dict) -> float:
    """max |rho / rho_cap - 1| against the Wulff cap of the same volume.

    The summary's radial_deviation is measured against the unit cap, so
    dividing by the fitted radius r0 gives criterion 9's quantity.
    """
    return float(summary["radial_deviation"]) / float(summary["r0"])


def _bound(summary: dict, key: str, limit: float) -> list[str]:
    value = float(summary[key])
    return [] if value <= limit else [f"{key} = {value:.3e} > {limit:g}"]

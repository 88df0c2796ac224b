"""Command line front end.

Subcommands: simulate (time-step a configured flow and write trace/report),
check-condition (admissibility report for a contact parameter), verify (named
check batteries with pass/fail lines), norm-info (basic facts about a norm).

Config files are flat ``section.key = value`` text.  Unknown keys are
rejected, '#' starts a comment, arrays are bracketed comma lists, and paths
are resolved relative to the config file.  Exit codes: 0 success, 2 config
error, 3 runtime blow-up, numerical failure or an output file that cannot be
written (partial outputs are kept): ``main`` maps ConfigError to 2 and every
other CapflowError, OSError, NumPy LinAlgError and MemoryError to 3.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import CapflowError
from .checks import SUITES
from .condition import CONDITION_SAMPLES, ConditionError, condition_check
from .expr import ExprError
from .flow import FlowConfig, FlowError, FlowTrace, run
from .norms import NormError, make_norm
from .wulff import WulffError, admissible_interval


class ConfigError(ValueError, CapflowError):
    pass


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

# key -> (parser kind, FlowConfig field it sets or None).  "list" is a
# bracketed comma list of floats, "path" is resolved relative to the config
# file; FlowConfig holds the flow defaults and checks their ranges
CONFIG_KEYS = {
    "norm.kind": (str, None),
    "norm.params": ("list", None),
    "norm.f0_expr": (str, None),
    "norm.dim": (int, None),
    "flow.omega0": (float, None),
    "flow.t_end": (float, "t_end"),
    "flow.cfl_sigma": (float, "cfl_sigma"),
    "flow.convergence_tol": (float, "convergence_tol"),
    "flow.boundary_tol": (float, "boundary_tol"),
    "flow.epsilon": (float, "epsilon"),
    "flow.seed": (int, "seed"),
    "flow.initial": (str, "initial"),
    "flow.dt_override": (float, "dt_override"),
    "flow.record_every": (int, "record_every"),
    "grid.n_beta": (int, "n_beta"),
    "grid.n_lambda": (int, "n_lambda"),
    "output.dir": ("path", None),
    "output.snapshot_every": (int, "snapshot_every"),
    "condition.omega0": (float, None),
    "condition.samples": (int, None),
}
# counts that must be at least 1
POSITIVE_KEYS = ("flow.record_every", "condition.samples")


def _parse_value(key: str, raw: str, base_dir: str):
    kind = CONFIG_KEYS[key][0]
    raw = raw.strip()
    if kind == "list":
        if not (raw.startswith("[") and raw.endswith("]")):
            raise ConfigError(f"{key}: expected a bracketed list, got {raw!r}")
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [float(tok) for tok in inner.split(",")]
    if kind == "path":
        return os.path.normpath(os.path.join(base_dir, raw))
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw


def parse_config(path: str) -> dict:
    """Read a flat key = value config into a dict keyed by section.key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            cfg[key] = _parse_value(key, raw, base_dir)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        if key in POSITIVE_KEYS and cfg[key] < 1:
            raise ConfigError(f"line {lineno}: {key} must be at least 1")
    return cfg


def build_norm(cfg: dict):
    kind = cfg.get("norm.kind")
    if kind is None:
        raise ConfigError("norm.kind is required")
    dim = cfg.get("norm.dim", 3)
    if dim not in (3, 4):
        raise ConfigError("norm.dim must be 3 or 4")
    try:
        return make_norm(
            kind,
            params=cfg.get("norm.params"),
            f0_expr=cfg.get("norm.f0_expr"),
            dim=dim,
        )
    except (NormError, ExprError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _require_omega0(cfg: dict, norm, key: str = "flow.omega0") -> float:
    omega0 = cfg.get(key, cfg.get("flow.omega0"))
    if omega0 is None:
        raise ConfigError(f"{key} is required")
    lo, hi = admissible_interval(norm)
    if not lo < omega0 < hi:
        raise ConfigError(
            f"omega0 outside (-F(E3), F(-E3)) = ({lo:g}, {hi:g})"
        )
    return float(omega0)


def _output_dir(cfg: dict, config_path: str) -> str:
    out = cfg.get("output.dir")
    if out is None:
        out = os.path.dirname(os.path.abspath(config_path)) or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output.dir: {exc}") from exc
    return out


# -- subcommands -----------------------------------------------------------


def cmd_simulate(config_path: str) -> int:
    cfg = parse_config(config_path)
    norm = build_norm(cfg)
    if norm.d != 3:
        raise ConfigError("simulate runs the flow of surfaces in R^3: norm.dim must be 3")
    omega0 = _require_omega0(cfg, norm)
    out = _output_dir(cfg, config_path)
    try:
        flow_cfg = FlowConfig(
            norm=norm, omega0=omega0, output_dir=out,
            **{field: cfg[key] for key, (_, field) in CONFIG_KEYS.items()
               if field is not None and key in cfg},
        )
    except FlowError as exc:
        raise ConfigError(str(exc)) from exc
    trace, _ = run(flow_cfg)
    trace.to_csv(os.path.join(out, "trace.csv"))
    _write_summary(os.path.join(out, "summary.txt"), trace)
    if trace.blow_up:
        print(f"run stopped: {trace.stop_reason}; partial trace written",
              file=sys.stderr)
        return EXIT_BLOWUP
    print(f"converged = {str(trace.converged).lower()}  steps = {trace.steps}"
          f"  stop_reason = {trace.stop_reason}")
    return EXIT_OK


def _write_summary(path: str, trace: FlowTrace) -> None:
    first = trace.records[0] if trace.records else {}
    last = trace.records[-1] if trace.records else {}
    v0_first = first.get("V0", float("nan"))
    v0_last = last.get("V0", float("nan"))
    v0_drift = abs(v0_last - v0_first) / abs(v0_first) if trace.records else float("nan")
    lines = [
        f"converged = {str(trace.converged).lower()}",
        f"blow_up = {str(trace.blow_up).lower()}",
        f"stop_reason = {trace.stop_reason}",
        f"steps = {trace.steps}",
        f"final_t = {last.get('t', float('nan')):.9g}",
        f"final_supF = {last.get('supF', float('nan')):.6g}",
        f"r0 = {trace.r0:.9g}",
        f"radial_deviation = {trace.radial_deviation:.6g}",
        f"V0_relative_drift = {v0_drift:.6g}",
        f"V1_increase = {trace.v1_increase:.6g}",
        f"min_ubar_drop = {trace.min_ubar_drop:.6g}",
        f"barrier_r1 = {trace.barrier_r1:.9g}",
        f"barrier_r2 = {trace.barrier_r2:.9g}",
        f"barrier_violation = {trace.barrier_violation:.6g}",
        f"min_kappaF_final = {last.get('min_kappaF', float('nan')):.6g}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_check_condition(config_path: str) -> int:
    cfg = parse_config(config_path)
    norm = build_norm(cfg)
    omega0 = _require_omega0(cfg, norm, key="condition.omega0")
    samples = cfg.get("condition.samples", CONDITION_SAMPLES)
    out = _output_dir(cfg, config_path)
    try:
        report = condition_check(norm, omega0, slice_samples=samples)
    except (ConditionError, WulffError) as exc:
        raise ConfigError(str(exc)) from exc
    lines = [
        f"omega0 = {report.omega0:.9g}",
        f"satisfied = {str(report.satisfied).lower()}",
        f"min_margin = {report.min_margin:.9g}",
        f"min_margin_translated = {report.min_margin_translated:.9g}",
        f"both_forms_agree = {str(report.both_forms_agree).lower()}",
        f"degenerate_samples = {report.degenerate_count}",
    ]
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(out, "condition_report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    with open(os.path.join(out, "condition_samples.csv"), "w", encoding="utf-8") as fh:
        d = norm.d
        header = [f"z{i}" for i in range(d)] + [f"Y{i}" for i in range(d)] + ["margin"]
        fh.write(",".join(header) + "\n")
        rows = np.column_stack([[s[k] for s in report.samples] for k in ("z", "Y", "margin")])
        row = ",".join(["%.12g"] * len(header)) + "\n"
        fh.write("".join(row % tuple(r) for r in rows.tolist()))
    return EXIT_OK


def cmd_norm_info(config_path: str) -> int:
    cfg = parse_config(config_path)
    norm = build_norm(cfg)
    d = norm.d
    # the admissible interval is (-F(E_d), F(-E_d))
    lo, hi = admissible_interval(norm)
    rep = norm.ellipticity_report(samples=500)
    print(f"norm = {norm.name}  dim = {d}")
    print(f"F(E{d}) = {-lo:.9g}")
    print(f"F(-E{d}) = {hi:.9g}")
    print(f"ellipticity_min_eigenvalue = {rep['min_eigenvalue']:.6g}")
    print(f"near_degenerate = {str(rep['near_degenerate']).lower()}")
    print(f"admissible_omega0 = ({lo:.9g}, {hi:.9g})")
    return EXIT_OK


def cmd_verify(suite: str) -> int:
    if suite not in SUITES:
        print(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}",
              file=sys.stderr)
        return EXIT_CONFIG
    all_ok = True
    for label, passed, detail in SUITES[suite]():
        verdict = "PASS" if passed else "FAIL"
        all_ok = all_ok and passed
        print(f"{verdict} {label}: {detail}")
    return EXIT_OK if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capflow",
        description="Anisotropic capillary flow toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="run a configured flow")
    p_sim.add_argument("config")
    p_cond = sub.add_parser("check-condition", help="contact-parameter admissibility")
    p_cond.add_argument("config")
    p_ver = sub.add_parser("verify", help="run a named check battery")
    p_ver.add_argument("suite")
    p_info = sub.add_parser("norm-info", help="basic facts about a configured norm")
    p_info.add_argument("config")
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "check-condition":
            return cmd_check_condition(args.config)
        if args.command == "verify":
            return cmd_verify(args.suite)
        return cmd_norm_info(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapflowError, OSError, np.linalg.LinAlgError, MemoryError) as exc:
        # config reads and output.dir creation raise ConfigError, so an
        # OSError here failed to write an output file; a LinAlgError comes
        # from a NumPy solve no capflow check guards, and a MemoryError from
        # a grid or sample count too large to allocate
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())

"""Config ingestion and subcommand behaviour of the command line front end."""

import os
import re
from pathlib import Path

import numpy as np
import pytest

from capflow import cli, flow
from capflow.cli import (
    ConfigError,
    build_norm,
    main,
    parse_config,
)
from capflow.norms import NORM_KINDS, DualSolveError
from test_flow import ShortClosure


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


SIM_CFG = """
# demo configuration
norm.kind = sphere
flow.omega0 = -0.5
grid.n_beta = 32
grid.n_lambda = 64
flow.t_end = 0.01
flow.record_every = 20
output.dir = out
"""


class TestConfigParsing:
    def test_sections_comments_types(self, tmp_path):
        cfg = parse_config(write(tmp_path, "a.cfg", SIM_CFG))
        assert cfg["norm.kind"] == "sphere"
        assert cfg["flow.omega0"] == -0.5
        assert cfg["grid.n_beta"] == 32
        assert cfg["output.dir"] == os.path.join(str(tmp_path), "out")

    def test_list_values(self, tmp_path):
        cfg = parse_config(
            write(tmp_path, "b.cfg", "norm.kind = ellipsoid\nnorm.params = [4, 1, 1]\n")
        )
        assert cfg["norm.params"] == [4.0, 1.0, 1.0]
        norm = build_norm(cfg)
        assert norm.f0(np.array([2.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write(tmp_path, "c.cfg", "flow.omega = 0.1\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "d.cfg", "norm.kind sphere\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "e.cfg", "flow.omega0 = fast\n"))

    def test_record_every_zero_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "r.cfg", SIM_CFG + "flow.record_every = 0\n")
        assert main(["simulate", path]) == 2
        assert "flow.record_every must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [0, -3])
    def test_nonpositive_samples_exit_two(self, tmp_path, capsys, samples):
        cfg = f"norm.kind = sphere\ncondition.omega0 = -0.3\ncondition.samples = {samples}\n"
        path = write(tmp_path, "s.cfg", cfg)
        assert main(["check-condition", path]) == 2
        assert "condition.samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "flow.t_end = -1", "flow.t_end = 0", "flow.t_end = nan",
    "flow.convergence_tol = 0", "flow.boundary_tol = 0", "flow.initial = foo",
    "flow.dt_override = -0.1", "flow.dt_override = 0", "flow.epsilon = -5",
    "flow.epsilon = 1", "flow.seed = -1", "flow.cfl_sigma = 1", "flow.record_every = 0",
    "output.snapshot_every = -2", "grid.n_beta = 8", "grid.n_lambda = 15",
    "norm.dim = 4",
])
def test_invalid_flow_value_exit_two(tmp_path, capsys, line):
    path = write(tmp_path, "v.cfg", SIM_CFG + line + "\n")
    assert main(["simulate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize("dim", [2, 5])
def test_check_condition_dimension_exit_two(tmp_path, capsys, dim):
    cfg = f"norm.kind = sphere\nnorm.dim = {dim}\ncondition.omega0 = -0.3\n"
    assert main(["check-condition", write(tmp_path, "d.cfg", cfg)]) == 2
    assert "norm.dim must be 3 or 4" in capsys.readouterr().err


def fail_at_step(k, error):
    """flow.step that raises error on its k-th call."""
    calls, step = [], flow.step

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise error
        return step(*args, **kwargs)

    return failing


class TestSimulate:
    def test_short_run_exit_zero(self, tmp_path, capsys):
        path = write(tmp_path, "sim.cfg", SIM_CFG)
        assert main(["simulate", path]) == 0
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert (out / "summary.txt").exists()
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("t,dt,V0,V1_boundary")

    def test_reruns_bit_identical(self, tmp_path):
        path = write(tmp_path, "sim.cfg", SIM_CFG)
        main(["simulate", path])
        first = (tmp_path / "out" / "trace.csv").read_bytes()
        main(["simulate", path])
        assert (tmp_path / "out" / "trace.csv").read_bytes() == first

    def test_inadmissible_omega_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.cfg", "norm.kind = sphere\nflow.omega0 = -2\n")
        assert main(["simulate", path]) == 2
        assert "(-1, 1)" in capsys.readouterr().err

    def test_blow_up_exit_three_with_partial_trace(self, tmp_path):
        cfg = SIM_CFG + "flow.dt_override = 0.5\nflow.t_end = 1.0\n"
        path = write(tmp_path, "blow.cfg", cfg)
        assert main(["simulate", path]) == 3
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_numerical_failure_mid_run_exit_three(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flow, "step", fail_at_step(
            63, DualSolveError("singular dual system for failing-sphere")))
        path = write(tmp_path, "fail.cfg", SIM_CFG + "flow.t_end = 0.1\n")
        assert main(["simulate", path]) == 3
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert len(trace) >= 3  # header plus the records at steps 0 and 20
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "blow_up = true" in summary

    def test_failed_run_keeps_last_good_state(self, tmp_path, monkeypatch, capsys):
        # step 34 fails, between the dt refreshes at steps 20 and 40
        monkeypatch.setattr(flow, "step", fail_at_step(
            34, DualSolveError("singular dual system")))
        path = write(tmp_path, "fail.cfg", SIM_CFG + "flow.t_end = 0.1\n")
        assert main(["simulate", path]) == 3
        assert "DualSolveError: singular dual system" in capsys.readouterr().err
        summary = dict(
            line.split(" = ", 1)
            for line in (tmp_path / "out" / "summary.txt").read_text().splitlines()
        )
        assert summary["stop_reason"] == "DualSolveError: singular dual system"
        steps = int(summary["steps"])
        assert steps > 20
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
        # dt is fixed between the 20-step refreshes, and the record at step 20
        # holds the dt of steps 21 onwards
        t20, dt20 = (float(v) for v in rows[1].split(",")[:2])
        expected = t20 + (steps - 20) * dt20
        assert float(summary["final_t"]) == pytest.approx(expected, rel=1e-8)
        assert float(rows[-1].split(",")[0]) == pytest.approx(expected, rel=1e-9)
        assert summary["r0"] != "nan"

    def test_closure_stopped_short_exit_three(self, tmp_path, monkeypatch, capsys):
        # from the cap, set-up closes no ghost row, so the first step fails;
        # the sampled cap already meets the default convergence_tol
        monkeypatch.setattr(cli, "make_norm", lambda *a, **k: ShortClosure(np.eye(3)))
        cfg = SIM_CFG + "flow.initial = cap\nflow.convergence_tol = 1e-9\n"
        path = write(tmp_path, "short.cfg", cfg)
        assert main(["simulate", path]) == 3
        assert "boundary closure did not reach 1e-08" in capsys.readouterr().err
        summary = dict(
            line.split(" = ", 1)
            for line in (tmp_path / "out" / "summary.txt").read_text().splitlines()
        )
        assert summary["stop_reason"].startswith(
            "FlowError: boundary closure did not reach 1e-08 (residual ")
        assert summary["steps"] == "0"

    def test_stop_reason_of_a_finished_run(self, tmp_path, capsys):
        path = write(tmp_path, "sim.cfg", SIM_CFG)
        assert main(["simulate", path]) == 0
        assert "stop_reason = t_end" in capsys.readouterr().out
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "stop_reason = t_end" in summary

    def test_snapshots_written(self, tmp_path):
        cfg = SIM_CFG + "output.snapshot_every = 25\n"
        path = write(tmp_path, "snap.cfg", cfg)
        main(["simulate", path])
        snaps = [f for f in os.listdir(tmp_path / "out") if f.startswith("snap_")]
        assert snaps and all(f.endswith(".obj") for f in snaps)


class TestCheckCondition:
    def test_report_files(self, tmp_path, capsys):
        cfg = (
            "norm.kind = quartic_a2\ncondition.omega0 = -0.3\n"
            "condition.samples = 32\noutput.dir = rep\n"
        )
        path = write(tmp_path, "cond.cfg", cfg)
        assert main(["check-condition", path]) == 0
        assert "satisfied = true" in capsys.readouterr().out
        assert (tmp_path / "rep" / "condition_report.txt").exists()
        csv = (tmp_path / "rep" / "condition_samples.csv").read_text().splitlines()
        assert len(csv) == 33

    def test_rejected_parameter(self, tmp_path, capsys):
        cfg = "norm.kind = quartic_a2\ncondition.omega0 = 0.1\ncondition.samples = 16\n"
        path = write(tmp_path, "cond2.cfg", cfg)
        assert main(["check-condition", path]) == 0
        assert "satisfied = false" in capsys.readouterr().out


class TestNormInfo:
    def test_prints_facts(self, tmp_path, capsys):
        path = write(tmp_path, "n.cfg", "norm.kind = ellipsoid\nnorm.params = [4,1,1]\n")
        assert main(["norm-info", path]) == 0
        out = capsys.readouterr().out
        assert "F(E3) = 1" in out
        assert "admissible_omega0 = (-1, 1)" in out
        assert "ellipticity_min_eigenvalue = 0.25" in out


class TestVerify:
    def test_unknown_suite(self, capsys):
        assert main(["verify", "nope"]) == 2

    def test_duality_suite_passes(self, capsys):
        assert main(["verify", "duality"]) == 0
        out = capsys.readouterr().out
        # sphere, ellipsoid, quartic_a2, the custom quartic and quartic_a3
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_appendix_suite_passes(self, capsys):
        assert main(["verify", "appendix-a"]) == 0


class TestReadme:
    def test_norm_kind_row_lists_every_kind(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = [
            line for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `norm.kind` |")
        ]
        assert len(rows) == 1
        meaning = rows[0].split("|")[3]
        assert tuple(re.findall(r"`([^`]+)`", meaning)) == NORM_KINDS

"""The documented CLI contract: exit codes by error class, bad input
rejected at load, every verify suite passing, and README tables that match
the code."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from capflow import checks, cli
from capflow.cli import main
from capflow.condition import CONDITION_SAMPLES
from capflow.flow import FlowConfig
from capflow.norms import QUARTIC_A2_TEXT, DualSolveError, Norm, make_norm
from capflow.wulff import admissible_interval

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

DEGENERATE = "norm.kind = custom\nnorm.f0_expr = sqrt((x+y+z)^2)\n"  # flat slab: rank-one G
# the l4 ball: G is rank one only at the axis points, which the load check samples
L4_BALL = "norm.kind = custom\nnorm.f0_expr = (x^4+y^4+z^4)^(1/4)\n"
NEGATIVE = "norm.kind = custom\nnorm.f0_expr = sqrt(x^2+y^2+z^2)+1.5*z\n"  # -0.5 at -E3
CYLINDER = "norm.kind = custom\nnorm.dim = 4\nnorm.f0_expr = sqrt((x+y)^2+z^2+w^2)\n"  # flat in x-y
# a norm that is smooth off the E4 axis: the load check at E4 evaluates the
# second square root at 0, off its domain
OFF_DOMAIN = ("norm.kind = custom\nnorm.dim = 4\n"
              "norm.f0_expr = sqrt(x^2+y^2+z^2+w^2)+0.1*sqrt(x^2+y^2+z^2)\n")
QUARTIC = f"norm.kind = custom\nnorm.f0_expr = {QUARTIC_A2_TEXT}\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


@pytest.mark.parametrize("command,cfg", [
    ("simulate", QUARTIC + "flow.omega0 = -0.3\ngrid.n_beta = 16\ngrid.n_lambda = 32\n"),
    ("check-condition", QUARTIC + "condition.omega0 = -0.3\n"),
    ("norm-info", QUARTIC),
])
def test_numerical_failure_at_setup_exit_three(tmp_path, capsys, monkeypatch, command, cfg):
    # a gauge that passes the load checks, and a dual solve that then fails
    def singular(self, *args, **kwargs):
        raise DualSolveError(f"singular dual system for {self.name}")

    monkeypatch.setattr(Norm, "support_many", singular)
    path = write(tmp_path, "n.cfg", cfg + "output.dir = out\n")
    assert main([command, path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "singular dual system" in err
    assert "Traceback" not in err


# one invalid value per config key, after any line it needs to be read
REJECTED = {
    "norm.kind": "norm.kind = bogus",
    "norm.params": "norm.kind = ellipsoid\nnorm.params = [1, 2]",
    "norm.f0_expr": "norm.kind = custom\nnorm.f0_expr = x^2+y^2+z^2",
    "norm.dim": "norm.dim = 5",
    "flow.omega0": "flow.omega0 = -2",
    "flow.t_end": "flow.t_end = 0",
    "flow.cfl_sigma": "flow.cfl_sigma = 1.5",
    "flow.convergence_tol": "flow.convergence_tol = 0",
    "flow.boundary_tol": "flow.boundary_tol = -1e-8",
    "flow.epsilon": "flow.epsilon = 1",
    "flow.seed": "flow.seed = -1",
    "flow.initial": "flow.initial = vortex",
    "flow.dt_override": "flow.dt_override = 0",
    "flow.record_every": "flow.record_every = 0",
    "grid.n_beta": "grid.n_beta = 8",
    "grid.n_lambda": "grid.n_lambda = 12.5",
    "output.dir": "output.dir = afile/sub",
    "output.snapshot_every": "output.snapshot_every = -1",
    "condition.omega0": "condition.omega0 = 2",
    "condition.samples": "condition.samples = 0",
}


def test_rejection_table_covers_every_config_key():
    assert list(REJECTED) == list(cli.CONFIG_KEYS)


@pytest.mark.parametrize("key", list(REJECTED))
def test_every_config_key_rejects_a_bad_value(tmp_path, capsys, key):
    (tmp_path / "afile").write_text("a regular file", encoding="utf-8")
    command = "check-condition" if key.startswith("condition.") else "simulate"
    base = ("norm.kind = sphere\nflow.omega0 = -0.3\ncondition.omega0 = -0.3\n"
            "grid.n_beta = 16\ngrid.n_lambda = 32\nflow.t_end = 0.001\noutput.dir = out\n")
    assert main([command, write(tmp_path, "k.cfg", base + REJECTED[key] + "\n")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("command,cfg", [
    ("norm-info", "norm.kind = sphere\nnorm.dim = 0\n"),
    ("norm-info", "norm.kind = sphere\nnorm.dim = 2\n"),
    ("norm-info", "norm.kind = sphere\nnorm.dim = 5\n"),
    ("norm-info", "norm.kind = ellipsoid\nnorm.params = [1, 1, nan]\n"),
    ("norm-info", "norm.kind = ellipsoid\nnorm.params = [1, inf, 1]\n"),
    ("check-condition",
     "norm.kind = sphere\ncondition.omega0 = -0.3\noutput.dir = afile/sub\n"),
    ("norm-info", "norm.kind = custom\nnorm.f0_expr = true\n"),
    ("simulate", NEGATIVE + "flow.omega0 = -0.3\ngrid.n_beta = 16\ngrid.n_lambda = 32\n"),
    ("check-condition", NEGATIVE + "condition.omega0 = -0.3\n"),
    ("norm-info", NEGATIVE),
    ("check-condition", OFF_DOMAIN + "condition.omega0 = -0.3\n"),
    ("norm-info", OFF_DOMAIN),
])
def test_bad_input_rejected_at_load(tmp_path, capsys, command, cfg):
    (tmp_path / "afile").write_text("a regular file", encoding="utf-8")
    assert main([command, write(tmp_path, "b.cfg", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("command,extra", [
    ("simulate", "flow.omega0 = -0.3\ngrid.n_beta = 16\ngrid.n_lambda = 32\n"),
    ("check-condition", "condition.omega0 = -0.3\n"),
    ("norm-info", ""),
])
def test_gauge_that_is_not_one_homogeneous_exit_two(tmp_path, capsys, command, extra):
    cfg = "norm.kind = custom\nnorm.f0_expr = x^2+y^2+z^2\n" + extra + "output.dir = out\n"
    assert main([command, write(tmp_path, "h.cfg", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "1-homogeneous" in err
    assert not (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize("command,cfg", [
    ("simulate", DEGENERATE + "flow.omega0 = -0.3\ngrid.n_beta = 16\ngrid.n_lambda = 32\n"),
    ("check-condition", DEGENERATE + "condition.omega0 = -0.3\n"),
    ("norm-info", DEGENERATE),
    ("check-condition", CYLINDER + "condition.omega0 = -0.3\n"),
    ("norm-info", CYLINDER),
    ("simulate", L4_BALL + "flow.omega0 = -0.3\ngrid.n_beta = 16\ngrid.n_lambda = 32\n"),
    ("check-condition", L4_BALL + "condition.omega0 = -0.3\n"),
    ("norm-info", L4_BALL),
])
def test_degenerate_gauge_exit_two(tmp_path, capsys, command, cfg):
    assert main([command, write(tmp_path, "g.cfg", cfg + "output.dir = out\n")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "degenerate" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_linalg_error_exit_three(tmp_path, capsys, monkeypatch):
    def unconverged(self, samples=1000):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(Norm, "ellipticity_report", unconverged)
    assert main(["norm-info", write(tmp_path, "e.cfg", "norm.kind = sphere\n")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "did not converge" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,target,cfg", [
    ("simulate", "run", "norm.kind = sphere\nflow.omega0 = -0.3\n"),
    ("check-condition", "condition_check", "norm.kind = sphere\ncondition.omega0 = -0.3\n"),
])
def test_memory_error_exit_three(tmp_path, capsys, monkeypatch, command, target, cfg):
    # what numpy raises for grid.n_beta = 100000000, without the allocation
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, target, too_large)
    assert main([command, write(tmp_path, "m.cfg", cfg + "output.dir = out\n")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed: Unable to allocate") and "Traceback" not in err


def test_commands_run_without_scipy(tmp_path):
    flow = ("norm.kind = sphere\nflow.omega0 = -0.5\nflow.t_end = 0.01\n"
            "grid.n_beta = 16\ngrid.n_lambda = 32\noutput.dir = out\n")
    cond = "norm.kind = quartic_a2\ncondition.omega0 = -0.3\noutput.dir = out\n"
    code = (
        "import sys\n"
        "from capflow.cli import main\n"
        f"assert main(['check-condition', {write(tmp_path, 'c.cfg', cond)!r}]) == 0\n"
        f"assert main(['simulate', {write(tmp_path, 's.cfg', flow)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("formula", [
    "(" * 1000 + "sqrt(x^2+y^2+z^2)" + ")" * 1000,
    "+".join(["sqrt(x^2+y^2+z^2)/2000"] * 2000),
    "sqrt(x^2+y^2+z^2)^9^9^9",
], ids=["nest", "sum", "tower"])
def test_formula_too_deep_or_too_large_exit_two(tmp_path, capsys, formula):
    # a 1,000-deep nest, a 2,000-term sum and a power tower: rejected at load
    path = write(tmp_path, "f.cfg", f"norm.kind = custom\nnorm.f0_expr = {formula}\n")
    start = time.perf_counter()
    assert main(["norm-info", path]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_cli_import_loads_no_new_modules():
    # nearly all of the set-up time is this import: beyond numpy's own
    # modules it may load only these
    allowed = {"__future__", "_decimal", "argparse", "copy", "dataclasses", "decimal",
               "fractions", "gettext"}
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import capflow.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {m for m in proc.stdout.split() if m.split(".")[0] != "capflow"}
    assert loaded <= allowed, sorted(loaded - allowed)


def test_quartic_expression_passes_the_homogeneity_check():
    norm = make_norm("custom", f0_expr=QUARTIC_A2_TEXT)
    assert norm.homogeneity_residual(relative=True) < 1e-14


def test_output_file_that_cannot_be_written_exit_three(tmp_path, capsys):
    (tmp_path / "out" / "trace.csv").mkdir(parents=True)
    cfg = ("norm.kind = sphere\nflow.omega0 = -0.5\ngrid.n_beta = 16\ngrid.n_lambda = 32\n"
           "flow.t_end = 0.01\noutput.dir = out\n")
    assert main(["simulate", write(tmp_path, "w.cfg", cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "trace.csv" in err and "Traceback" not in err


@pytest.mark.parametrize("suite", list(checks.SUITES))
def test_every_verify_suite_passes(capsys, suite):
    assert main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS") and "FAIL" not in out


def readme_config_defaults() -> dict:
    """README config table: key -> its default cell text, in table order.

    A row that lists several keys lists their defaults in the same order,
    comma separated."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2
    out = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        keys = re.findall(r"`([^`]+)`", cells[1])
        defaults = [d.strip().strip("`") for d in cells[2].split(",")] if len(keys) > 1 \
            else [cells[2].strip().strip("`")]
        assert len(defaults) == len(keys), line
        out.update(zip(keys, defaults))
    return out


def test_readme_config_table_lists_every_key():
    assert tuple(readme_config_defaults()) == tuple(cli.CONFIG_KEYS)


def test_readme_config_defaults_match_the_code():
    documented = readme_config_defaults()
    fields = FlowConfig.__dataclass_fields__
    for key, (kind, field) in cli.CONFIG_KEYS.items():
        if field is not None:
            text = documented[key]
            value = None if text == "—" else kind(text)
            assert value == fields[field].default, key
    assert int(documented["condition.samples"]) == CONDITION_SAMPLES


def test_readme_verify_suites_line_lists_every_suite():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("Verify suites:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", paragraph)) == tuple(checks.SUITES)


# every norm kind at the edges of its parameter range: extreme ellipsoid axes
# across and along the vertical, and the quartic_a3 shift near +-1
EDGE_NORMS = [
    ("sphere", []), ("quartic_a2", []), ("quartic_a2_prime", []), ("custom", []),
    ("ellipsoid", [1e-6, 1, 1]), ("ellipsoid", [1e6, 1, 1]),
    ("ellipsoid", [1, 1, 1e-6]), ("ellipsoid", [1, 1, 1e6]),
    ("quartic_a3", [0.999]), ("quartic_a3", [-0.999]),
]


@pytest.mark.parametrize("kind,params", EDGE_NORMS)
def test_parameter_edges_end_in_a_documented_exit_code(tmp_path, capsys, kind, params):
    lo, hi = admissible_interval(make_norm(kind, params, QUARTIC_A2_TEXT))
    norm = f"norm.kind = {kind}\nnorm.params = {params}\nnorm.f0_expr = {QUARTIC_A2_TEXT}\n"
    codes = []
    for i, omega0 in enumerate((lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo))):
        cfg = (norm + f"flow.omega0 = {omega0!r}\ncondition.omega0 = {omega0!r}\n"
               "flow.t_end = 1e-9\ngrid.n_beta = 16\ngrid.n_lambda = 16\n"
               f"condition.samples = 16\noutput.dir = out{i}\n")
        path = write(tmp_path, f"e{i}.cfg", cfg)
        for command in ("check-condition", "simulate", "norm-info"):
            codes.append((command, omega0, main([command, path])))
    assert all(code in (0, 2, 3) for *_, code in codes), codes
    assert "Traceback" not in capsys.readouterr().err


def test_degenerate_metric_is_named_without_a_numpy_warning(tmp_path):
    # the ellipsoid [1e6, 1, 1] near the low end of its admissible interval:
    # ghat's smallest eigenvalue is 0 on the 16x16 grid, which used to be
    # divided by and reported as a time step underflow
    lo, hi = admissible_interval(make_norm("ellipsoid", [1e6, 1, 1]))
    cfg = write(tmp_path, "d.cfg", (
        f"norm.kind = ellipsoid\nnorm.params = [1e6, 1, 1]\n"
        f"flow.omega0 = {lo + 1e-9 * (hi - lo)!r}\nflow.t_end = 1e-9\n"
        "grid.n_beta = 16\ngrid.n_lambda = 16\noutput.dir = out\n"))
    env = dict(os.environ, PYTHONWARNINGS="default", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "capflow.cli", "simulate", cfg],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "degenerate metric ghat" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr

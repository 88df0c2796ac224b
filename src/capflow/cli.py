"""Command line front end.

Subcommands: simulate (time-step a configured flow and write trace/report),
check-condition (admissibility report for a contact parameter), verify (named
check batteries with pass/fail lines), norm-info (basic facts about a norm).

Config files are flat ``section.key = value`` text.  Unknown keys are
rejected, '#' starts a comment, arrays are bracketed comma lists, and paths
are resolved relative to the config file.  Exit codes: 0 success, 2 config
error, 3 runtime blow-up or numerical failure (partial outputs are kept).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .condition import ConditionError, condition_check
from .expr import EvalDomainError, ExprError
from .flow import (
    INITIAL_PRESETS,
    BlowUpError,
    FlowConfig,
    FlowError,
    FlowTrace,
    boundary_enforce,
    perturbation_field,
    rate_checks,
    run,
)
from .norms import NormError, make_norm
from .surface import (
    GraphSurface,
    HalfSphereGrid,
    SurfaceError,
    capillary_area,
    enclosed_volume,
    geometry,
    minkowski_residual,
    quermassintegral_interior,
)
from .wulff import (
    CapillaryWulffShape,
    WulffError,
    admissible_interval,
    anchor_vector,
)


class ConfigError(ValueError):
    pass


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

# key -> parser kind; "list" is a bracketed comma list of floats,
# "path" is resolved relative to the config file
CONFIG_KEYS = {
    "norm.kind": str,
    "norm.params": "list",
    "norm.f0_expr": str,
    "norm.dim": int,
    "flow.omega0": float,
    "flow.t_end": float,
    "flow.cfl_sigma": float,
    "flow.convergence_tol": float,
    "flow.boundary_tol": float,
    "flow.epsilon": float,
    "flow.seed": int,
    "flow.initial": str,
    "flow.dt_override": float,
    "flow.record_every": int,
    "grid.n_beta": int,
    "grid.n_lambda": int,
    "output.dir": "path",
    "output.snapshot_every": int,
    "condition.samples": int,
    "condition.omega0": float,
}
# counts that must be at least 1
POSITIVE_KEYS = ("flow.record_every", "condition.samples")
# simulate keys and the FlowConfig fields they set; FlowConfig holds the
# defaults and checks the ranges
FLOW_FIELDS = {
    "grid.n_beta": "n_beta", "grid.n_lambda": "n_lambda",
    "flow.cfl_sigma": "cfl_sigma", "flow.t_end": "t_end",
    "flow.convergence_tol": "convergence_tol", "flow.boundary_tol": "boundary_tol",
    "flow.record_every": "record_every", "output.snapshot_every": "snapshot_every",
    "flow.epsilon": "epsilon", "flow.seed": "seed", "flow.initial": "initial",
    "flow.dt_override": "dt_override",
}


def _parse_value(key: str, raw: str, base_dir: str):
    kind = CONFIG_KEYS[key]
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
    if raw in ("true", "false"):
        return raw == "true"
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
    try:
        return make_norm(
            kind,
            params=cfg.get("norm.params"),
            f0_expr=cfg.get("norm.f0_expr"),
            dim=cfg.get("norm.dim", 3),
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
    os.makedirs(out, exist_ok=True)
    return out


# -- subcommands -----------------------------------------------------------


def cmd_simulate(config_path: str) -> int:
    cfg = parse_config(config_path)
    norm = build_norm(cfg)
    if norm.d != 3:
        raise ConfigError("simulate runs the flow of surfaces in R^3: norm.dim must be 3")
    omega0 = _require_omega0(cfg, norm)
    out = _output_dir(cfg, config_path)
    if "flow.initial" in cfg and cfg["flow.initial"] not in INITIAL_PRESETS:
        raise ConfigError(f"flow.initial must be one of {', '.join(INITIAL_PRESETS)}")
    try:
        flow_cfg = FlowConfig(
            norm=norm, omega0=omega0, output_dir=out,
            **{name: cfg[key] for key, name in FLOW_FIELDS.items() if key in cfg},
        )
    except FlowError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        trace, _ = run(flow_cfg)
    except (FlowError, WulffError, NormError, SurfaceError, EvalDomainError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
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
    if norm.d not in (3, 4):
        raise ConfigError("check-condition samples slices in R^3 or R^4: norm.dim must be 3 or 4")
    omega0 = _require_omega0(cfg, norm, key="condition.omega0")
    samples = cfg.get("condition.samples", 256)
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
        for s in report.samples:
            row = list(s["z"]) + list(s["Y"]) + [s["margin"]]
            fh.write(",".join(f"{x:.12g}" for x in row) + "\n")
    return EXIT_OK


def cmd_norm_info(config_path: str) -> int:
    cfg = parse_config(config_path)
    norm = build_norm(cfg)
    d = norm.d
    e_up = np.zeros(d)
    e_up[-1] = 1.0
    f_up = norm.support(e_up).value
    f_down = norm.support(-e_up).value
    rep = norm.ellipticity_report(samples=500)
    lo, hi = admissible_interval(norm)
    print(f"norm = {norm.name}  dim = {d}")
    print(f"F(E{d}) = {f_up:.9g}")
    print(f"F(-E{d}) = {f_down:.9g}")
    print(f"ellipticity_min_eigenvalue = {rep['min_eigenvalue']:.6g}")
    print(f"near_degenerate = {str(rep['near_degenerate']).lower()}")
    print(f"admissible_omega0 = ({lo:.9g}, {hi:.9g})")
    return EXIT_OK


# -- verification batteries -------------------------------------------------
# These drive the same library calls as the test suite; each returns a list
# of (label, passed, detail) triples.

SUITES = (
    "duality",
    "wulff-static",
    "minkowski",
    "flow-conservation",
    "inequalities",
    "appendix-a",
)


def _duality_checks():
    checks = []
    for name, norm, tol in (
        ("sphere", make_norm("sphere"), 1e-12),
        ("ellipsoid(4,1,1)", make_norm("ellipsoid", [4.0, 1.0, 1.0]), 1e-7),
        ("quartic_a2", make_norm("quartic_a2"), 1e-7),
    ):
        rep = norm.verify_duality(samples=100)
        worst = max(
            rep["gauge_of_maximizer"], rep["gradient_alignment"], rep["metric_pairing"]
        )
        checks.append((f"duality {name}", worst <= tol and rep["all_converged"],
                       f"max residual {worst:.3e} (tol {tol:g})"))
    return checks


def static_cap_bundle(norm, omega0: float, n_beta: int, n_lambda: int):
    """Geometry bundle of the exact model cap on the given grid."""
    grid = HalfSphereGrid(2, n_beta, n_lambda)
    anchor = anchor_vector(norm, omega0)
    shape = CapillaryWulffShape(norm, 1.0, omega0, anchor)
    surf = GraphSurface.from_wulff(grid, shape)
    return geometry(surf, norm, omega0, anchor)


CAP_BATTERY = (
    ("sphere theta=pi/3", "sphere", None, -np.cos(np.pi / 3)),
    ("sphere theta=pi/2", "sphere", None, 0.0),
    ("quartic_a2 w0=-0.3", "quartic_a2", None, -0.3),
)


def _wulff_static_checks():
    checks = []
    for label, kind, params, omega0 in CAP_BATTERY:
        bundle = static_cap_bundle(make_norm(kind, params), omega0, 64, 128)
        sup_f = float(np.abs(bundle.f).max())
        checks.append((f"static cap {label}", sup_f <= 5e-3,
                       f"sup|f| = {sup_f:.3e} (tol 5e-3)"))
    return checks


def _minkowski_checks():
    checks = []
    for label, kind, params, omega0 in CAP_BATTERY:
        bundle = static_cap_bundle(make_norm(kind, params), omega0, 64, 128)
        for k in (0, 1):
            res = abs(minkowski_residual(bundle, k))
            checks.append((f"minkowski k={k} {label}", res <= 1e-3,
                           f"residual {res:.3e} (tol 1e-3)"))
    return checks


def _flow_conservation_checks():
    # short coarse run: same monitors as the full acceptance runs
    cfg = FlowConfig(
        norm=make_norm("sphere"), omega0=-np.cos(np.pi / 3),
        n_beta=32, n_lambda=64, t_end=0.25, record_every=50,
    )
    trace, _ = run(cfg)
    v0 = trace.column("V0")
    drift = abs(v0[-1] - v0[0]) / abs(v0[0])
    return [
        ("V0 conservation", drift <= 5e-3, f"relative drift {drift:.3e}"),
        ("V1 monotone", trace.v1_increase <= 0.0,
         f"max increase {trace.v1_increase:.3e}"),
        ("min ubar monotone", trace.min_ubar_drop <= 1e-4,
         f"drop {trace.min_ubar_drop:.3e}"),
        ("barrier containment", trace.barrier_violation <= 1e-3,
         f"violation {trace.barrier_violation:.3e}"),
    ]


def star_battery_n2(norm, omega0: float, n_beta: int = 48, n_lambda: int = 96):
    """Five star-shaped capillary surfaces over the model cap, as bundles."""
    grid = HalfSphereGrid(2, n_beta, n_lambda)
    anchor = anchor_vector(norm, omega0)
    shape = CapillaryWulffShape(norm, 1.0, omega0, anchor)
    bundles = []
    for scale, eps, seed in (
        (1.0, 0.0, 0), (0.7, 0.0, 0), (1.0, 0.08, 3), (1.0, 0.15, 7), (1.3, 0.1, 11),
    ):
        surf = GraphSurface.from_wulff(grid, shape)
        surf.phi[: grid.n_beta + 1] += np.log(scale)
        surf.phi[grid.n_beta + 1] += np.log(scale)
        if eps > 0.0:
            factor = perturbation_field(grid, eps, seed)
            surf.phi[: grid.n_beta + 1] += np.log(factor)
        boundary_enforce(surf, norm, omega0)
        bundles.append(geometry(surf, norm, omega0, anchor))
    return bundles


def isoperimetric_slacks(norm, omega0: float, bundles=None):
    """V1-ratio vs V0-ratio^(n/(n+1)) slack per battery surface (n = 2)."""
    if bundles is None:
        bundles = star_battery_n2(norm, omega0)
    anchor = anchor_vector(norm, omega0)
    grid = bundles[0].surface.grid
    unit = geometry(
        GraphSurface.from_wulff(grid, CapillaryWulffShape(norm, 1.0, omega0, anchor)),
        norm, omega0, anchor,
    )
    v0_unit = enclosed_volume(unit)
    v1_unit = capillary_area(unit)
    out = []
    for b in bundles:
        r0 = enclosed_volume(b) / v0_unit
        r1 = capillary_area(b) / v1_unit
        out.append(r1 - r0 ** (grid.n / (grid.n + 1)))
    return out


def af_slacks_n2(norm, omega0: float, ks=(1,), n_beta: int = 48, n_lambda: int = 96):
    """Higher-ratio chain slacks on a convex n = 2 battery."""
    grid = HalfSphereGrid(2, n_beta, n_lambda)
    anchor = anchor_vector(norm, omega0)
    shape = CapillaryWulffShape(norm, 1.0, omega0, anchor)
    unit = geometry(GraphSurface.from_wulff(grid, shape), norm, omega0, anchor)
    v0_unit = enclosed_volume(unit)
    vk_unit = {k: quermassintegral_interior(unit, k - 1) for k in ks}
    out = []
    for scale, eps, seed in ((0.8, 0.0, 0), (1.25, 0.0, 0), (1.0, 0.03, 5)):
        surf = GraphSurface.from_wulff(grid, shape)
        surf.phi[: grid.n_beta + 1] += np.log(scale)
        surf.phi[grid.n_beta + 1] += np.log(scale)
        if eps > 0.0:
            surf.phi[: grid.n_beta + 1] += np.log(perturbation_field(grid, eps, seed))
        boundary_enforce(surf, norm, omega0)
        b = geometry(surf, norm, omega0, anchor)
        if float(b.kappaF.min()) <= 0.0:
            raise FlowError("battery surface is not convex")
        r0 = (enclosed_volume(b) / v0_unit) ** (1.0 / (grid.n + 1))
        for k in ks:
            rk = (quermassintegral_interior(b, k - 1) / vk_unit[k]) ** (
                1.0 / (grid.n + 1 - k)
            )
            out.append(rk - r0)
    return out


def af_slacks_n3(omega0: float = -0.5, ks=(1, 2), sizes=(16, 32, 32)):
    """Same chain on a coarse n = 3 convex battery (round norm, d = 4)."""
    norm = make_norm("sphere", dim=4)
    grid = HalfSphereGrid(3, sizes[0], sizes[1], sizes[2])
    anchor = anchor_vector(norm, omega0)
    shape = CapillaryWulffShape(norm, 1.0, omega0, anchor)
    unit = geometry(GraphSurface.from_wulff(grid, shape), norm, omega0, anchor)
    v0_unit = enclosed_volume(unit)
    vk_unit = {k: quermassintegral_interior(unit, k - 1) for k in ks}
    out = []
    for scale in (0.8, 1.3):
        surf = GraphSurface.from_wulff(grid, shape)
        surf.phi += np.log(scale)
        b = geometry(surf, norm, omega0, anchor)
        r0 = (enclosed_volume(b) / v0_unit) ** (1.0 / (grid.n + 1))
        for k in ks:
            rk = (quermassintegral_interior(b, k - 1) / vk_unit[k]) ** (
                1.0 / (grid.n + 1 - k)
            )
            out.append(rk - r0)
    return out


def _inequality_checks():
    checks = []
    omega0 = -np.cos(np.pi / 3)
    norm = make_norm("sphere")
    iso = isoperimetric_slacks(norm, omega0)
    checks.append(("isoperimetric battery n=2", min(iso) >= -1e-3,
                   f"min slack {min(iso):.3e}"))
    af2 = af_slacks_n2(norm, omega0)
    checks.append(("ratio chain k=1 n=2", min(af2) >= -1e-3,
                   f"min slack {min(af2):.3e}"))
    af3 = af_slacks_n3()
    checks.append(("ratio chain k=1,2 n=3", min(af3) >= -1e-3,
                   f"min slack {min(af3):.3e}"))
    return checks


def _appendix_checks():
    checks = []
    for name, norm in (
        ("sphere", make_norm("sphere")),
        ("ellipsoid(4,1,1)", make_norm("ellipsoid", [4.0, 1.0, 1.0])),
    ):
        from .norms import fibonacci_sphere

        q = norm.tensor_Q_many(fibonacci_sphere(50))
        worst = float(np.abs(q).max())
        checks.append((f"quadratic Q=0 {name}", worst <= 1e-10,
                       f"max entry {worst:.3e}"))
    a2 = make_norm("quartic_a2")
    rep = condition_check(a2, 0.1, slice_samples=64)
    checks.append(("quartic_a2 rejects w0=0.1", not rep.satisfied,
                   f"min margin {rep.min_margin:.3e}"))
    rep = condition_check(a2, -0.3, slice_samples=64)
    checks.append(("quartic_a2 accepts w0=-0.3", rep.satisfied,
                   f"min margin {rep.min_margin:.3e}"))
    a3 = make_norm("quartic_a3", [0.3])
    rep = condition_check(a3, 0.3, slice_samples=64)
    checks.append(("quartic_a3 z0=0.3 equality at w0=0.3",
                   rep.satisfied and abs(rep.min_margin) <= 1e-5,
                   f"min margin {rep.min_margin:.3e}"))
    return checks


def cmd_verify(suite: str) -> int:
    runners = {
        "duality": _duality_checks,
        "wulff-static": _wulff_static_checks,
        "minkowski": _minkowski_checks,
        "flow-conservation": _flow_conservation_checks,
        "inequalities": _inequality_checks,
        "appendix-a": _appendix_checks,
    }
    if suite not in runners:
        print(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}",
              file=sys.stderr)
        return EXIT_CONFIG
    all_ok = True
    for label, passed, detail in runners[suite]():
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
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())

"""Check batteries for the paper's identities and inequalities.

The surface batteries (model caps, star-shaped and convex perturbations of
them) and the ``verify`` suites built on them.  The test suite and
``capflow verify`` drive the same functions; each suite returns a list of
(label, passed, detail) triples.
"""

from __future__ import annotations

import numpy as np

from .condition import condition_check
from .flow import FlowConfig, FlowError, boundary_enforce, perturbation_field, run
from .norms import QUARTIC_A2_TEXT, fibonacci_sphere, make_norm
from .surface import (
    GraphSurface,
    HalfSphereGrid,
    capillary_area,
    enclosed_volume,
    geometry,
    minkowski_residual,
    quermassintegral_interior,
)
from .wulff import CapillaryWulffShape, anchor_vector

# the n = 2 batteries' grid (n_beta, n_lambda) and ratio-chain orders; the
# n = 3 battery's contact parameter, grid (n_beta, n_lambda) and orders
BATTERY_GRID_N2 = (48, 96)
RATIO_KS_N2 = (1,)
OMEGA0_N3 = -0.5
BATTERY_GRID_N3 = (16, 32)
RATIO_KS_N3 = (1, 2)


def _battery(norm, omega0: float, grid: HalfSphereGrid, members=()):
    """Bundles of the unit model cap and of each (scale, epsilon, seed) member.

    A member is the model cap scaled by `scale`, its radius times the
    perturbation factor of amplitude epsilon when epsilon > 0; on n = 2 its
    ghost row is then re-solved by the boundary Newton.
    """
    anchor = anchor_vector(norm, omega0)
    shape = CapillaryWulffShape(norm, 1.0, omega0, anchor)
    unit = geometry(GraphSurface.from_wulff(grid, shape), norm, omega0, anchor)
    bundles = []
    for scale, eps, seed in members:
        surf = GraphSurface.from_wulff(grid, shape)
        surf.phi += np.log(scale)
        if eps > 0.0:
            surf.phi[: grid.n_beta + 1] += np.log(perturbation_field(grid, eps, seed))
        if grid.n == 2:
            boundary_enforce(surf, norm, omega0)
        bundles.append(geometry(surf, norm, omega0, anchor))
    return unit, bundles


def _ratio_chain(unit, bundles, ks):
    """(V_k ratio)^(1/(n+1-k)) - (V_0 ratio)^(1/(n+1)) per bundle and k, on
    convex bundles."""
    if any(float(b.kappaF.min()) <= 0.0 for b in bundles):
        raise FlowError("battery surface is not convex")
    n = unit.surface.grid.n
    v0_unit = enclosed_volume(unit)
    vk_unit = {k: quermassintegral_interior(unit, k - 1) for k in ks}
    out = []
    for b in bundles:
        r0 = (enclosed_volume(b) / v0_unit) ** (1.0 / (n + 1))
        for k in ks:
            rk = (quermassintegral_interior(b, k - 1) / vk_unit[k]) ** (1.0 / (n + 1 - k))
            out.append(rk - r0)
    return out


def static_cap_bundle(norm, omega0: float, n_beta: int, n_lambda: int):
    """Geometry bundle of the exact model cap on the given grid."""
    return _battery(norm, omega0, HalfSphereGrid(2, n_beta, n_lambda))[0]


CAP_BATTERY = (
    ("sphere theta=pi/3", "sphere", None, -np.cos(np.pi / 3)),
    ("sphere theta=pi/2", "sphere", None, 0.0),
    ("quartic_a2 w0=-0.3", "quartic_a2", None, -0.3),
)


def star_battery_n2(norm, omega0: float):
    """Five star-shaped capillary surfaces over the model cap, as bundles."""
    members = ((1.0, 0.0, 0), (0.7, 0.0, 0), (1.0, 0.08, 3), (1.0, 0.15, 7), (1.3, 0.1, 11))
    return _battery(norm, omega0, HalfSphereGrid(2, *BATTERY_GRID_N2), members)[1]


def isoperimetric_slacks(norm, omega0: float, bundles=None):
    """V1-ratio vs V0-ratio^(n/(n+1)) slack per battery surface (n = 2)."""
    if bundles is None:
        bundles = star_battery_n2(norm, omega0)
    unit = _battery(norm, omega0, bundles[0].surface.grid)[0]
    n = unit.surface.grid.n
    v0_unit = enclosed_volume(unit)
    v1_unit = capillary_area(unit)
    return [
        capillary_area(b) / v1_unit - (enclosed_volume(b) / v0_unit) ** (n / (n + 1))
        for b in bundles
    ]


def af_slacks_n2(norm, omega0: float):
    """Higher-ratio chain slacks on a convex n = 2 battery."""
    battery = _battery(norm, omega0, HalfSphereGrid(2, *BATTERY_GRID_N2),
                       ((0.8, 0.0, 0), (1.25, 0.0, 0), (1.0, 0.03, 5)))
    return _ratio_chain(*battery, RATIO_KS_N2)


def af_slacks_n3():
    """Same chain on a coarse n = 3 convex battery (round norm, d = 4).  The
    scaled caps give slack 0 by homogeneity; the perturbed cap is the member
    that tests the inequality."""
    members = ((0.8, 0.0, 0), (1.3, 0.0, 0), (1.0, 0.03, 5))
    battery = _battery(make_norm("sphere", dim=4), OMEGA0_N3,
                       HalfSphereGrid(3, *BATTERY_GRID_N3), members)
    return _ratio_chain(*battery, RATIO_KS_N3)


# -- verify suites ---------------------------------------------------------


def _duality_checks():
    checks = []
    for name, norm, tol in (
        ("sphere", make_norm("sphere"), 1e-12),
        ("ellipsoid(4,1,1)", make_norm("ellipsoid", [4.0, 1.0, 1.0]), 1e-7),
        ("quartic_a2", make_norm("quartic_a2"), 1e-7),
        # the builtin gauges all have a closed-form dual; these two rows keep
        # the generic Newton and the shifted gauge's dual in the suite
        ("custom quartic_a2", make_norm("custom", f0_expr=QUARTIC_A2_TEXT), 1e-7),
        ("quartic_a3 [0.3]", make_norm("quartic_a3", [0.3]), 1e-7),
    ):
        rep = norm.verify_duality(samples=100)
        worst = max(
            rep["gauge_of_maximizer"], rep["gradient_alignment"], rep["metric_pairing"]
        )
        checks.append((f"duality {name}", worst <= tol and rep["all_converged"],
                       f"max residual {worst:.3e} (tol {tol:g})"))
    return checks


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


def _inequality_checks():
    omega0 = -np.cos(np.pi / 3)
    norm = make_norm("sphere")
    return [
        (label, min(slacks) >= -1e-3, f"min slack {min(slacks):.3e}")
        for label, slacks in (
            ("isoperimetric battery n=2", isoperimetric_slacks(norm, omega0)),
            ("ratio chain k=1 n=2", af_slacks_n2(norm, omega0)),
            ("ratio chain k=1,2 n=3", af_slacks_n3()),
        )
    ]


def _appendix_checks():
    checks = []
    for name, norm in (
        ("sphere", make_norm("sphere")),
        ("ellipsoid(4,1,1)", make_norm("ellipsoid", [4.0, 1.0, 1.0])),
    ):
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


# suite name -> battery, in the order `capflow verify` documents them
SUITES = {
    "duality": _duality_checks,
    "wulff-static": _wulff_static_checks,
    "minkowski": _minkowski_checks,
    "flow-conservation": _flow_conservation_checks,
    "inequalities": _inequality_checks,
    "appendix-a": _appendix_checks,
}

"""End-to-end acceptance battery.

Each numbered test prints one PASS line when its assertions hold.  The two
long perturbed-cap runs are shared module fixtures; expect the whole module
to take about half a minute (about 20 s of a 35 s tier-1 run on a shared
2-vCPU host).
"""

import numpy as np
import pytest

from capflow.checks import (
    CAP_BATTERY,
    af_slacks_n2,
    af_slacks_n3,
    isoperimetric_slacks,
    star_battery_n2,
    static_cap_bundle,
)
from capflow.condition import condition_check, scan_max_omega
from capflow.flow import FlowConfig, rate_checks, run
from capflow.norms import fibonacci_sphere, make_norm
from capflow.surface import (
    SliceSupportTable,
    capillary_area,
    enclosed_volume,
    minkowski_residual,
    quermassintegral_boundary,
    quermassintegral_interior,
)
from capflow.wulff import CapillaryWulffShape, TranslatedNorm, anchor_vector

SPHERE = make_norm("sphere")
ELLIPSOID = make_norm("ellipsoid", [4.0, 1.0, 1.0])
A2 = make_norm("quartic_a2")

OMEGA_PI_3 = -np.cos(np.pi / 3)


def announce(capsys, text):
    with capsys.disabled():
        print(f"\n{text}", flush=True)


@pytest.fixture(scope="module")
def cap_bundles():
    """Static model-cap geometry at two resolutions, per battery member."""
    out = {}
    for label, kind, params, omega0 in CAP_BATTERY:
        norm = make_norm(kind, params)
        for res in ((64, 128), (128, 256)):
            out[label, res] = static_cap_bundle(norm, omega0, *res)
    return out


@pytest.fixture(scope="module")
def sphere_run():
    cfg = FlowConfig(
        norm=SPHERE, omega0=OMEGA_PI_3, n_beta=64, n_lambda=128,
        epsilon=0.1, seed=42, t_end=10.0,
    )
    return run(cfg)


@pytest.fixture(scope="module")
def a2_run():
    cfg = FlowConfig(
        norm=A2, omega0=-0.3, n_beta=64, n_lambda=128,
        epsilon=0.1, seed=42, t_end=10.0,
    )
    return run(cfg)


def test_criterion_1_duality(capsys):
    worsts = []
    for name, norm, tol in (
        ("sphere", SPHERE, 1e-12),
        ("ellipsoid", ELLIPSOID, 1e-7),
        ("quartic_a2", A2, 1e-7),
    ):
        rep = norm.verify_duality(samples=100, seed=7)
        worst = max(
            rep["gauge_of_maximizer"],
            rep["gradient_alignment"],
            rep["metric_pairing"],
        )
        assert rep["all_converged"]
        assert worst <= tol, (name, worst)
        worsts.append(worst)
    announce(capsys, f"PASS criterion 1: duality residuals {max(worsts):.2e} "
                     "within per-norm tolerances over 100 samples")


def test_criterion_2_quadratic_third_order_vanishes(capsys):
    pts = fibonacci_sphere(100)
    worst = 0.0
    for norm in (SPHERE, ELLIPSOID):
        worst = max(worst, float(np.abs(norm.tensor_Q_many(pts)).max()))
    assert worst <= 1e-10
    announce(capsys, f"PASS criterion 2: quadratic-norm third-order tensor "
                     f"max entry {worst:.2e} <= 1e-10")


def test_criterion_3_condition_thresholds(capsys):
    w_sphere = scan_max_omega(SPHERE, (-0.2, 0.5), slice_samples=64)
    w_a2 = scan_max_omega(A2, (-0.2, 0.5), slice_samples=64)
    assert abs(w_sphere) <= 1e-3 and abs(w_a2) <= 1e-3

    a3 = make_norm("quartic_a3", [0.3])
    rep = condition_check(a3, 0.3, slice_samples=128)
    assert rep.satisfied and abs(rep.min_margin) <= 1e-5

    for norm, omega0 in ((SPHERE, -0.5), (A2, -0.3), (A2, 0.1), (a3, 0.3)):
        assert condition_check(norm, omega0, slice_samples=64).both_forms_agree
    announce(capsys, f"PASS criterion 3: thresholds sphere {w_sphere:+.1e}, "
                     f"quartic {w_a2:+.1e}; shifted-quartic margin "
                     f"{rep.min_margin:+.1e}; both margin forms agree in sign")


def test_criterion_4_static_caps(capsys, cap_bundles):
    sups = {}
    for label, _, _, _ in CAP_BATTERY:
        coarse = float(np.abs(cap_bundles[label, (64, 128)].f).max())
        fine = float(np.abs(cap_bundles[label, (128, 256)].f).max())
        assert coarse <= 5e-3, (label, coarse)
        assert fine <= 1.5e-3, (label, fine)
        sups[label] = (coarse, fine)
    worst = max(v[0] for v in sups.values())
    announce(capsys, f"PASS criterion 4: static cap speeds <= {worst:.2e} at "
                     "64x128 and refine at second order")


def test_criterion_5_minkowski(capsys, cap_bundles):
    worst = 0.0
    for label, _, _, _ in CAP_BATTERY:
        for k in (0, 1):
            coarse = abs(minkowski_residual(cap_bundles[label, (64, 128)], k))
            fine = abs(minkowski_residual(cap_bundles[label, (128, 256)], k))
            assert coarse <= 1e-3, (label, k, coarse)
            # one refinement must cut the residual by at least ~h^2 / slack,
            # unless it already sits at roundoff
            if coarse > 1e-10:
                assert fine <= coarse / 3.0, (label, k, coarse, fine)
            worst = max(worst, coarse)
    announce(capsys, f"PASS criterion 5: Minkowski residuals <= {worst:.2e} "
                     "at 64x128 with O(h^2) decay")


def test_criterion_6_quermassintegral_consistency(capsys, cap_bundles):
    for label, kind, params, omega0 in CAP_BATTERY:
        b = cap_bundles[label, (64, 128)]
        table = SliceSupportTable(TranslatedNorm(make_norm(kind, params),
                                                omega0, b.anchor))
        v2b = quermassintegral_boundary(b, 1, table)
        v2i = quermassintegral_interior(b, 1)
        assert v2b == pytest.approx(v2i, rel=5e-3), label
        v0 = enclosed_volume(b)
        assert quermassintegral_interior(b, 0) == pytest.approx(v0, rel=2e-3)
        assert quermassintegral_interior(b, 1) == pytest.approx(v0, rel=2e-3)

    b = static_cap_bundle(SPHERE, OMEGA_PI_3, 64, 128)
    target = 5 * np.pi / 24
    assert enclosed_volume(b) == pytest.approx(target, abs=1e-3)
    assert capillary_area(b) == pytest.approx(target, abs=1e-3)
    announce(capsys, "PASS criterion 6: boundary and interior forms agree, "
                     "model-shape functionals coincide, cap value 5*pi/24 hit")


def test_criterion_7_conservation_and_monotonicity(capsys, sphere_run, a2_run):
    for name, (trace, _) in (("sphere", sphere_run), ("quartic", a2_run)):
        v0 = trace.column("V0")
        drift = abs(v0[-1] - v0[0]) / abs(v0[0])
        assert drift <= 5e-3, (name, drift)
        assert trace.v1_increase <= 0.0, (name, trace.v1_increase)
        assert trace.min_ubar_drop <= 1e-4, (name, trace.min_ubar_drop)
        assert trace.barrier_violation <= 1e-3, (name, trace.barrier_violation)
    announce(capsys, "PASS criterion 7: volume conserved, energy monotone, "
                     "support-ratio and barrier monitors hold on both runs")


def test_criterion_8_rate_formulas(capsys, sphere_run, a2_run):
    worst0 = worst1 = 0.0
    for name, (trace, _) in (("sphere", sphere_run), ("quartic", a2_run)):
        errs = rate_checks(trace)
        supf = trace.column("supF")
        checked = 0
        for i in range(1, len(trace.records) - 1):
            if supf[i] <= 0.05:
                continue
            checked += 1
            # near the static state the true rate sits below the spatial
            # truncation floor; an absolute guard covers that regime
            ok0 = errs["err_k0"][i] <= 0.05 or errs["abs_k0"][i] <= 2.5e-4
            ok1 = errs["err_k1"][i] <= 0.05 or errs["abs_k1"][i] <= 2.5e-4
            assert ok0, (name, i, errs["err_k0"][i], errs["abs_k0"][i])
            assert ok1, (name, i, errs["err_k1"][i], errs["abs_k1"][i])
            worst0 = max(worst0, min(errs["err_k0"][i], 1.0))
            worst1 = max(worst1, min(errs["err_k1"][i], 1.0))
        assert checked >= 3, name
    announce(capsys, "PASS criterion 8: transient rate identities hold "
                     "(5% relative or 2.5e-4 absolute) on both runs")


def test_criterion_9_convergence_to_model_shape(capsys, sphere_run, a2_run):
    devs = []
    for name, norm, omega0, (trace, surface) in (
        ("sphere", SPHERE, OMEGA_PI_3, sphere_run),
        ("quartic", A2, -0.3, a2_run),
    ):
        assert trace.converged, name
        assert trace.records[-1]["supF"] <= 1e-2, name
        anchor = anchor_vector(norm, omega0)
        unit = static_cap_bundle(norm, omega0, 64, 128)
        r0 = (trace.records[-1]["V0"] / enclosed_volume(unit)) ** (1.0 / 3.0)
        shape = CapillaryWulffShape(norm, r0, omega0, anchor)
        grid = surface.grid
        base = shape.radial_many(grid.directions().reshape(-1, 3))
        rho = np.exp(surface.phi[: grid.n_beta + 1]).ravel()
        dev = float(np.abs(rho / base - 1.0).max())
        assert dev <= 1e-2, (name, dev)
        devs.append(dev)
    announce(capsys, f"PASS criterion 9: both runs converge; radial deviation "
                     f"from the model shape <= {max(devs):.2e} of its radius")


def test_criterion_10_inequalities(capsys):
    mins = []
    for norm, omega0 in ((SPHERE, OMEGA_PI_3), (A2, -0.3)):
        bundles = star_battery_n2(norm, omega0)
        assert len(bundles) == 5
        iso = isoperimetric_slacks(norm, omega0, bundles)
        assert min(iso) >= -1e-3, (omega0, min(iso))
        mins.append(min(iso))
        af = af_slacks_n2(norm, omega0)
        assert min(af) >= -1e-3, (omega0, min(af))
        mins.append(min(af))
    af3 = af_slacks_n3()
    assert min(af3) >= -1e-3, min(af3)
    mins.append(min(af3))
    announce(capsys, f"PASS criterion 10: isoperimetric and ratio-chain "
                     f"slacks all >= {min(mins):+.1e} (bar -1e-3)")


def test_criterion_11_convexity_witness(capsys, sphere_run, a2_run):
    for name, (trace, _) in (("sphere", sphere_run), ("quartic", a2_run)):
        kappa = trace.column("min_kappaF")
        assert kappa[0] > 0.0, name
        assert kappa.min() >= 0.5 * kappa[0], (name, kappa[0], kappa.min())

    # control run outside the admissible range: trace reported, no bar
    cfg = FlowConfig(norm=A2, omega0=0.3, n_beta=32, n_lambda=64,
                     t_end=1.0, record_every=25)
    trace, _ = run(cfg)
    kappa = trace.column("min_kappaF")
    announce(capsys, "PASS criterion 11: admissible runs keep min curvature "
                     "above half its initial value; control run at the "
                     f"rejected parameter traced min curvature "
                     f"{kappa[0]:.3f} -> {kappa.min():.3f} (no pass/fail bar)")

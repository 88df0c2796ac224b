"""Discrete geometry of radial graphs on the half-sphere lattice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow.checks import CAP_BATTERY, static_cap_bundle
from capflow.norms import (QUARTIC_A2_TEXT, Norm, QuadraticNorm, QuarticGaugeNorm,
                           ShiftedGaugeNorm, make_norm)
from capflow.surface import (
    _d1,
    _stencils_n2,
    _d1_edge,
    _d2_edge,
    GeometryBundle,
    GraphSurface,
    HalfSphereGrid,
    SurfaceError,
    boundary_capillarity_residual,
    capillary_area,
    enclosed_volume,
    export_obj,
    geometry,
    minkowski_residual,
    quermassintegral_boundary,
    quermassintegral_interior,
    SliceSupportTable,
    wetted_area,
)
from capflow.wulff import CapillaryWulffShape, TranslatedNorm, WulffError, anchor_vector
from test_flow import rotated_quadric

SPHERE = make_norm("sphere")
A2 = make_norm("quartic_a2")


def cap_bundle(norm, omega0, nb=32, nl=64):
    grid = HalfSphereGrid(2, nb, nl)
    anchor = anchor_vector(norm, omega0)
    shape = CapillaryWulffShape(norm, 1.0, omega0, anchor)
    return geometry(GraphSurface.from_wulff(grid, shape), norm, omega0, anchor)


class TestGrid:
    def test_quadrature_exact_for_constant(self):
        grid = HalfSphereGrid(2, 24, 48)
        ones = np.ones((24, 48))
        assert grid.quad(ones, pole_value=1.0) == pytest.approx(2 * np.pi, rel=1e-14)

    def test_quadrature_constant_n3(self):
        # cell-centered midpoint rule: second order in the polar spacing
        errs = []
        for nb in (8, 16):
            grid = HalfSphereGrid(3, nb, 2 * nb)
            ones = np.ones((nb, 2 * nb, 2 * nb))
            # half the area of the unit 3-sphere
            errs.append(abs(grid.quad(ones) - np.pi**2))
        assert errs[0] < 2e-2 and errs[1] < errs[0] / 3.0

    def test_quadrature_second_order(self):
        # smooth non-constant field: cos^2(beta)
        errs = []
        for nb in (16, 32):
            grid = HalfSphereGrid(2, nb, 2 * nb)
            f = np.cos(grid.betas[1:])[:, None] ** 2 * np.ones((nb, 2 * nb))
            errs.append(abs(grid.quad(f, pole_value=1.0) - 2 * np.pi / 3))
        assert errs[1] < errs[0] / 3.0

    def test_too_coarse(self):
        with pytest.raises(SurfaceError):
            HalfSphereGrid(2, 4, 64)

    def test_directions_unit(self):
        for grid in (HalfSphereGrid(2, 16, 32), HalfSphereGrid(3, 8, 16)):
            d = grid.directions()
            assert np.allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-14)


class TestHemisphere:
    # unit hemisphere under the round norm: every derived field is known

    def test_pointwise_fields(self):
        b = cap_bundle(SPHERE, 0.0)
        assert np.abs(b.F - 1.0).max() < 1e-12
        assert np.abs(b.u_hat - 1.0).max() < 1e-12
        assert np.abs(b.kappaF - 1.0).max() < 1e-7
        assert np.abs(b.f).max() < 1e-7

    def test_volume_and_area(self):
        b = cap_bundle(SPHERE, 0.0)
        assert enclosed_volume(b) == pytest.approx(2 * np.pi / 3, rel=1e-9)
        assert capillary_area(b) == pytest.approx(2 * np.pi / 3, rel=1e-10)

    def test_wetted_disk(self):
        grid = HalfSphereGrid(2, 16, 32)
        surf = GraphSurface.from_radial(grid, lambda d: np.full(d.shape[:-1], 1.5))
        assert wetted_area(surf) == pytest.approx(np.pi * 1.5**2, rel=1e-12)

    def test_scaled_hemisphere_curvature(self):
        grid = HalfSphereGrid(2, 16, 32)
        surf = GraphSurface.from_radial(grid, lambda d: np.full(d.shape[:-1], 2.0))
        b = geometry(surf, SPHERE, 0.0)
        assert np.abs(b.kappaF - 0.5).max() < 1e-7

    def test_n3_hemisphere(self):
        norm4 = make_norm("sphere", dim=4)
        grid = HalfSphereGrid(3, 8, 16)
        anchor = anchor_vector(norm4, 0.0)
        shape = CapillaryWulffShape(norm4, 1.0, 0.0, anchor)
        b = geometry(GraphSurface.from_wulff(grid, shape), norm4, 0.0, anchor)
        assert np.abs(b.kappaF - 1.0).max() < 5e-7
        assert np.abs(b.f).max() < 5e-7
        # midpoint quadrature: O(h^2) on the coarse interior lattice
        assert enclosed_volume(b) == pytest.approx(np.pi**2 / 4, rel=2e-3)


class TestCapGeometry:
    def test_static_speed_small(self):
        for norm, omega0 in ((SPHERE, -0.5), (A2, -0.3)):
            b = cap_bundle(norm, omega0)
            assert np.abs(b.f).max() < 2e-2

    def test_boundary_capillarity(self):
        # sampled data carries O(h^2) stencil truncation; the ghost solve
        # removes it entirely
        b = cap_bundle(A2, -0.3)
        assert boundary_capillarity_residual(b) < 5e-3
        from capflow.flow import boundary_enforce

        surf = b.surface
        boundary_enforce(surf, A2, -0.3)
        b2 = geometry(surf, A2, -0.3, b.anchor)
        assert boundary_capillarity_residual(b2) < 1e-10

    def test_minkowski_residual(self):
        b = cap_bundle(A2, -0.3)
        for k in (0, 1):
            assert abs(minkowski_residual(b, k)) < 5e-3

    def test_quermassintegral_chain_on_model_shape(self):
        # all capillary quermassintegrals coincide on the model shape
        b = cap_bundle(SPHERE, -0.5, nb=48, nl=96)
        v0 = enclosed_volume(b)
        assert capillary_area(b) == pytest.approx(v0, rel=2e-3)
        assert quermassintegral_interior(b, 0) == pytest.approx(v0, rel=2e-3)
        assert quermassintegral_interior(b, 1) == pytest.approx(v0, rel=2e-3)

    def test_boundary_vs_interior_form(self):
        b = cap_bundle(A2, -0.3, nb=48, nl=96)
        table = SliceSupportTable(TranslatedNorm(A2, -0.3, b.anchor))
        v2b = quermassintegral_boundary(b, 1, table)
        v2i = quermassintegral_interior(b, 1)
        assert v2b == pytest.approx(v2i, rel=5e-3)

    def test_cap_volume_theta_pi_3(self):
        b = cap_bundle(SPHERE, -np.cos(np.pi / 3), nb=48, nl=96)
        assert enclosed_volume(b) == pytest.approx(5 * np.pi / 24, rel=1e-3)
        assert capillary_area(b) == pytest.approx(5 * np.pi / 24, rel=1e-3)

    def test_nonfinite_phi_rejected(self):
        grid = HalfSphereGrid(2, 16, 32)
        surf = GraphSurface.from_radial(grid, lambda d: np.full(d.shape[:-1], 1.0))
        surf.phi[3, 5] = np.nan
        with pytest.raises(SurfaceError):
            geometry(surf, SPHERE, 0.0)


class TestExport:
    def test_obj_roundtrip(self, tmp_path):
        grid = HalfSphereGrid(2, 8, 16)
        surf = GraphSurface.from_radial(grid, lambda d: np.full(d.shape[:-1], 1.0))
        path = tmp_path / "mesh.obj"
        export_obj(surf, str(path))
        text = path.read_text()
        n_v = sum(1 for ln in text.splitlines() if ln.startswith("v "))
        n_f = sum(1 for ln in text.splitlines() if ln.startswith("f "))
        assert n_v == 8 * 16 + 1  # shared pole vertex
        assert n_f > 0


class FlippedGradient(QuadraticNorm):
    """The sphere gauge, with a rim closure whose gradient rows point inward."""

    def slice_maximizers(self, h, omega0, z0=None):
        z, c = super().slice_maximizers(h, omega0, z0)
        return z, np.concatenate((c[:1], -c[1:]))


CAPS = CAP_BATTERY + (
    ("ellipsoid [4, 1, 2] w0=-0.3", "ellipsoid", [4.0, 1.0, 2.0], -0.3),
    ("quartic_a2_prime w0=-0.3", "quartic_a2_prime", None, -0.3),
    ("quartic_a3 [0.3] w0=-0.3", "quartic_a3", [0.3], -0.3),
)


class TestSliceSupportTable:
    @pytest.mark.parametrize("label, kind, params, omega0", CAPS, ids=[c[0] for c in CAPS])
    def test_boundary_vs_interior_form_k2(self, label, kind, params, omega0):
        # V3 reads h + h'' in its slice term; the gaps measured at 64x128 are
        # <= 1.7e-5, and 7.6e-5 for quartic_a3
        norm = make_norm(kind, params)
        b = static_cap_bundle(norm, omega0, 64, 128)
        table = SliceSupportTable(TranslatedNorm(norm, omega0, b.anchor))
        v3b = quermassintegral_boundary(b, 2, table)
        assert v3b == pytest.approx(quermassintegral_interior(b, 2), rel=2.5e-4), label

    def test_inward_gradient_raises(self):
        tn = TranslatedNorm(FlippedGradient(np.eye(3)), -0.3)
        with pytest.raises(WulffError, match="no point with this planar normal"):
            SliceSupportTable(tn).support(np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))


def oracle_geometry_n2(surface, norm, omega0, anchor):
    """Every n = 2 bundle field by the batched np.roll / T G T^T / eigen
    formulas, as a reference for the component-wise kernel, and the extra
    absolute slack of the two fields that take an ill-conditioned root."""
    grid = surface.grid
    nb, db, dl = grid.n_beta, grid.dbeta, grid.dlam
    phi = surface.phi
    rows, up, down = phi[1 : nb + 1], phi[2 : nb + 2], phi[0:nb]
    p_b = (up - down) / (2 * db)
    p_bb = (up - 2 * rows + down) / db**2
    p_l = (np.roll(rows, -1, axis=1) - np.roll(rows, 1, axis=1)) / (2 * dl)
    p_ll = (np.roll(rows, -1, axis=1) - 2 * rows + np.roll(rows, 1, axis=1)) / dl**2
    p_bl = (np.roll(up, -1, axis=1) - np.roll(up, 1, axis=1)
            - np.roll(down, -1, axis=1) + np.roll(down, 1, axis=1)) / (4 * db * dl)
    beta, lam = grid.betas[1:][:, None], grid.lambdas[None, :]
    sb, cb = np.sin(beta), np.cos(beta)
    cot = cb / sb
    H12 = (p_bl - cot * p_l) / sb
    grad = np.stack([p_b, p_l / sb], axis=-1)
    hess = np.stack([np.stack([p_bb, H12], axis=-1),
                     np.stack([H12, p_ll / sb**2 + cot * p_b], axis=-1)], axis=-2)
    u = np.stack([sb * np.cos(lam), sb * np.sin(lam), cb + 0 * lam], axis=-1)
    e1 = np.stack([cb * np.cos(lam), cb * np.sin(lam), -sb + 0 * lam], axis=-1)
    e2 = np.stack([-np.sin(lam) + 0 * sb, np.cos(lam) + 0 * sb, 0 * sb * lam], axis=-1)
    N = rows.size
    rho, p, H = np.exp(rows).reshape(N), grad.reshape(N, 2), hess.reshape(N, 2, 2)
    u, frame = u.reshape(N, 3), np.stack([e1, e2], axis=-2).reshape(N, 2, 3)
    v = np.sqrt(1.0 + np.sum(p**2, axis=1))
    nu = (u - (p[:, :, None] * frame).sum(axis=1)) / v[:, None]
    h = (rho / v)[:, None, None] * (np.eye(2) + p[:, :, None] * p[:, None, :] - H)
    F, xi, _, ok = norm.support_many(nu)
    assert np.all(ok)
    T = rho[:, None, None] * (p[:, :, None] * u[:, None, :] + frame)
    ghat = T @ norm.metric_G_many(xi) @ T.transpose(0, 2, 1)
    hhat = h / F[:, None, None]
    a = ghat[:, 0, 0] * ghat[:, 1, 1] - ghat[:, 0, 1] ** 2
    b = (hhat[:, 0, 0] * ghat[:, 1, 1] + hhat[:, 1, 1] * ghat[:, 0, 0]
         - 2.0 * hhat[:, 0, 1] * ghat[:, 0, 1])
    c = hhat[:, 0, 0] * hhat[:, 1, 1] - hhat[:, 0, 1] ** 2
    disc = np.sqrt(np.maximum(b**2 - 4.0 * a * c, 0.0))
    kappa = np.stack([(b - disc) / (2 * a), (b + disc) / (2 * a)], axis=1)
    HF = kappa.sum(axis=1)
    u_hat = rho / (v * F)
    pairing = (nu @ anchor.e_f) / F
    denom = 1.0 + omega0 * pairing
    tr = ghat[:, 0, 0] + ghat[:, 1, 1]
    lam_min = 0.5 * (tr - np.sqrt(np.maximum(tr**2 - 4 * a, 0.0)))
    Hk = np.stack([np.ones(N), 0.5 * HF, kappa[:, 0] * kappa[:, 1]], axis=1)
    fields = dict(
        v=v, rho=rho, F=F, nu=nu, nu_F=xi, u_hat=u_hat, u_bar=u_hat / denom,
        pairing=pairing, kappaF=kappa, Hk=Hk, HF=HF, f=2 * denom - u_hat * HF,
        area_el=rho**2 * v, diffusion_max=float(np.max(u_hat / lam_min)),
    )
    # Both roots take the square root of a discriminant that nearly vanishes
    # where the eigenvalues nearly coincide (umbilic points, a round metric).
    # There a rounding change of d in the discriminant D moves the root by up
    # to d / (sqrt(D) + sqrt(d)): half the digits, for the oracle too.
    def root_shift(D, scale):
        d = 1e-14 * scale
        return d / (np.sqrt(np.maximum(D, 0.0)) + np.sqrt(d))

    k_shift = root_shift(b**2 - 4.0 * a * c, b**2 + 4.0 * np.abs(a * c)) / (2 * a)
    lam_shift = 0.5 * root_shift(tr**2 - 4 * a, tr**2)
    slack = dict(kappaF=k_shift[:, None],
                 diffusion_max=float(np.max(u_hat * lam_shift / lam_min**2)))
    return fields, slack


def smooth_surface(grid, seed):
    """log-radius of a few low harmonics, smooth through the pole, sampled
    on rows 0..n_beta and the ghost row."""
    rng = np.random.default_rng(seed)
    beta = grid.dbeta * np.arange(grid.n_beta + 2)[:, None]
    lam = grid.lambdas[None, :]
    phi = rng.uniform(-0.3, 0.3) + 0 * beta * lam
    for m in range(4):
        for k in range(2):
            amp, phase = rng.uniform(-0.06, 0.06), rng.uniform(0, 2 * np.pi)
            phi = phi + amp * np.sin(beta) ** m * np.cos(beta) ** k * np.cos(m * lam + phase)
    return GraphSurface(grid, phi)


class TestStencilsN3:
    """The n = 3 derivative stencils, on a (7, 8, 9) lattice along every axis."""

    SHAPE, H = (7, 8, 9), 0.3

    def coordinate(self, axis):
        x = 0.4 + self.H * np.arange(self.SHAPE[axis])
        view = [1, 1, 1]
        view[axis] = -1
        return x.reshape(view)

    def coefficients(self, rng, count, axis):
        # constant along axis, varying across the other two
        shape = list(self.SHAPE)
        shape[axis] = 1
        return rng.uniform(-1.0, 1.0, [count] + shape)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_d1_edge_exact_on_quadratics(self, axis):
        c = self.coefficients(np.random.default_rng(axis), 3, axis)
        x = self.coordinate(axis)
        a = c[0] + c[1] * x + c[2] * x**2
        got = _d1_edge(a, axis, self.H)
        np.testing.assert_allclose(got, c[1] + 2 * c[2] * x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_d2_edge_exact_on_cubics(self, axis):
        c = self.coefficients(np.random.default_rng(10 + axis), 4, axis)
        x = self.coordinate(axis)
        a = c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3
        got = _d2_edge(a, axis, self.H)
        np.testing.assert_allclose(got, 2 * c[2] + 6 * c[3] * x, rtol=0, atol=1e-11)

    def test_d1_is_the_central_symbol_on_a_periodic_mode(self):
        # the periodic axis of 9 nodes, mode m: d/dx of sin(m x) reads
        # sin(m h)/h cos(m x) at every node, the wrapped ones included
        n, m = self.SHAPE[2], 2
        h = 2 * np.pi / n
        x = h * np.arange(n)
        amp = np.random.default_rng(3).uniform(0.5, 1.5, self.SHAPE[:2] + (1,))
        got = _d1(amp * np.sin(m * x), 2, h)
        np.testing.assert_allclose(got, amp * np.sin(m * h) / h * np.cos(m * x),
                                   rtol=0, atol=1e-14)


class TestLeanKernel:
    CASES = [(SPHERE, -0.5), (A2, -0.3)]

    @given(seed=st.integers(0, 2**32 - 1), nb=st.sampled_from([16, 24]),
           case=st.sampled_from([0, 1]))
    @settings(max_examples=30, deadline=None)
    def test_every_field_matches_the_batched_formulas(self, seed, nb, case):
        norm, omega0 = self.CASES[case]
        anchor = anchor_vector(norm, omega0)
        surf = smooth_surface(HalfSphereGrid(2, nb, 2 * nb), seed)
        b = geometry(surf, norm, omega0, anchor)
        fields, slack = oracle_geometry_n2(surf, norm, omega0, anchor)
        for name, want in fields.items():
            got = getattr(b, name)
            assert np.shape(got) == np.shape(want), name
            excess = np.abs(got - want) - 1e-11 * (1.0 + np.abs(want)) - slack.get(name, 0.0)
            assert np.all(excess <= 0.0), (name, float(np.max(excess)))

    def test_lazy_fields_are_cached(self):
        b = cap_bundle(A2, -0.3, nb=16, nl=32)
        for name in ("u_bar", "kappaF", "Hk", "area_el", "diffusion_max"):
            assert getattr(b, name) is getattr(b, name), name


BUILTIN_CLOSED = {"sphere": (SPHERE, -0.5),
                  "ellipsoid": (make_norm("ellipsoid", [1.2, 0.8, 1.0]), -0.3),
                  "quartic_a2": (A2, -0.3),
                  "quartic_a2_prime": (make_norm("quartic_a2_prime"), 0.2),
                  "quartic_a3": (make_norm("quartic_a3", [0.3]), -0.2)}
# the gauges whose metric comes from the jets of the support solve
JET_CARRIERS = {"custom": (make_norm("custom", f0_expr=QUARTIC_A2_TEXT), -0.3)}


def counted_jets(monkeypatch, norm):
    """Count the norm's gauge_jets calls from here on."""
    calls = []
    original = norm.gauge_jets
    monkeypatch.setattr(norm, "gauge_jets", lambda *a, **k: calls.append(1) or original(*a, **k))
    return calls


class TestClosedFormMetric:
    FIELDS = ("nu", "v", "rho", "F", "nu_F", "u_hat", "pairing", "HF", "f", "maximizers",
              "kappaF", "diffusion_max")

    @pytest.mark.parametrize("kind", sorted(BUILTIN_CLOSED) + sorted(JET_CARRIERS))
    def test_geometry_evaluates_jets_only_for_jet_carriers(self, kind, monkeypatch):
        norm, omega0 = {**BUILTIN_CLOSED, **JET_CARRIERS}[kind]
        anchor = anchor_vector(norm, omega0)
        grid = HalfSphereGrid(2, 16, 32)
        # the shifted gauge reads its jets from its base
        calls = counted_jets(monkeypatch, getattr(norm, "base", norm))
        cold = geometry(smooth_surface(grid, 3), norm, omega0, anchor)
        geometry(smooth_surface(grid, 4), norm, omega0, anchor, warm=cold, dual_tol=1e-9)
        if kind in BUILTIN_CLOSED:
            assert len(calls) == 0
        else:
            assert len(calls) >= 1

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(BUILTIN_CLOSED)))
    @settings(max_examples=12, deadline=None)
    def test_closed_forms_carry_no_jets_and_ignore_the_warm_start(self, seed, kind):
        norm, omega0 = BUILTIN_CLOSED[kind]
        anchor = anchor_vector(norm, omega0)
        grid = HalfSphereGrid(2, 16, 32)
        b = geometry(smooth_surface(grid, seed), norm, omega0, anchor)
        assert b.maximizer_jets is None
        nxt = smooth_surface(grid, seed + 1)
        warm = geometry(nxt, norm, omega0, anchor, warm=b, dual_tol=1e-9)
        cold = geometry(nxt, norm, omega0, anchor)
        assert warm.maximizer_jets is None
        for name in self.FIELDS:
            assert np.array_equal(getattr(warm, name), getattr(cold, name)), name


class TestCarriedJets:
    FIELDS = TestClosedFormMetric.FIELDS + ("maximizer_jets",)

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(JET_CARRIERS)))
    @settings(max_examples=10, deadline=None)
    def test_carried_jets_equal_recomputed_ones(self, seed, kind):
        norm, omega0 = JET_CARRIERS[kind]
        anchor = anchor_vector(norm, omega0)
        grid = HalfSphereGrid(2, 16, 32)
        b = geometry(smooth_surface(grid, seed), norm, omega0, anchor)
        # the jets at the maximizers: those of the last Newton iterate
        recomputed = norm.gauge_jets(b.maximizers)
        assert np.array_equal(b.maximizer_jets, recomputed)
        nxt = smooth_surface(grid, seed + 1)
        carried = geometry(nxt, norm, omega0, anchor, warm=b, dual_tol=1e-9)
        b.maximizer_jets = recomputed
        fresh = geometry(nxt, norm, omega0, anchor, warm=b, dual_tol=1e-9)
        for name in self.FIELDS:
            assert np.array_equal(getattr(carried, name), getattr(fresh, name)), name


class TestNearlyUmbilic:
    """kappaF and diffusion_max where ghat has nearly equal eigenvalues."""

    @staticmethod
    def bundle(ghat, hhat):
        (g11, g12), (_, g22) = ghat
        (h11, h12), (_, h22) = hhat
        parts = dict(ghat11=np.array([g11]), ghat12=np.array([g12]), ghat22=np.array([g22]),
                     a=np.array([g11 * g22 - g12 * g12]),
                     h11=np.array([h11]), h12=np.array([h12]), h22=np.array([h22]))
        one = np.ones(1)
        return GeometryBundle(None, None, 0.0, None, (1, 1), one, one, one, one, one, one,
                              one, None, parts)

    def test_diagonal_metric(self):
        # ghat = diag(1, 1 + 1e-9), hhat = I: kappaF = 1/(1 + 1e-9) and 1, and
        # the smallest eigenvalue of ghat is 1; tr^2 - 4 det cancels to 1e-18
        # against rounding of 4e-16 here, which cost half the digits
        gap = 1e-9
        b = self.bundle(((1.0, 0.0), (0.0, 1.0 + gap)), ((1.0, 0.0), (0.0, 1.0)))
        np.testing.assert_allclose(b.kappaF[0], [1.0 / (1.0 + gap), 1.0], rtol=4e-16, atol=0)
        assert b.diffusion_max == pytest.approx(1.0, rel=4e-16, abs=0)

    @given(angle=st.floats(0.0, np.pi), gap=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
           k=st.floats(0.2, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_rotated_metric(self, angle, gap, k):
        # ghat = R^T diag(1, 1 + gap) R and hhat = k R^T diag(1, 1 + 2 gap) R:
        # the curvatures are k and k (1 + 2 gap)/(1 + gap), ghat's eigenvalues 1, 1 + gap
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, s], [-s, c]])
        ghat = rot.T @ np.diag([1.0, 1.0 + gap]) @ rot
        hhat = k * rot.T @ np.diag([1.0, 1.0 + 2.0 * gap]) @ rot
        b = self.bundle(ghat, hhat)
        want = [k, k * (1.0 + 2.0 * gap) / (1.0 + gap)]
        np.testing.assert_allclose(b.kappaF[0], want, rtol=2e-15, atol=0)
        assert b.diffusion_max == pytest.approx(1.0, rel=2e-15, abs=0)


class GenericPath(Norm):
    """A builtin gauge that geometry takes through the support solve and
    Norm.dual_metric, as a custom gauge, instead of its own frame geometry."""

    def __init__(self, gauge):
        super().__init__(gauge.d, name=gauge.name)
        self.gauge = gauge

    def gauge_jets(self, pts, order=2):
        return self.gauge.gauge_jets(pts, order)

    def support_many(self, *args, **kwargs):
        return self.gauge.support_many(*args, **kwargs)


class TestQuadricProjections:
    """The n = 2 closed-form geometry from per-node frame rows: the quadric's
    projections, the quartic's meridian form and the shifted gauge's rescaling."""

    LAZY = ("nu", "nu_F")
    NORMS = {"sphere": SPHERE, "ellipsoid": make_norm("ellipsoid", [4.0, 1.0, 2.0]),
             "rotated": rotated_quadric(), "quartic_a2": A2,
             "quartic_a2_prime": make_norm("quartic_a2_prime"),
             "quartic_a3": make_norm("quartic_a3", [0.3])}

    def test_warm_geometry_solves_nothing_and_leaves_the_normals_unread(self, monkeypatch):
        norm, omega0 = make_norm("sphere"), -0.5
        anchor = anchor_vector(norm, omega0)
        grid = HalfSphereGrid(2, 24, 48)
        cold = geometry(smooth_surface(grid, 1), norm, omega0, anchor)
        calls = []
        for name in ("support_many", "gauge_jets", "metric_times"):
            monkeypatch.setattr(norm, name, lambda *a, name=name, **k: calls.append(name))
        warm = geometry(smooth_surface(grid, 2), norm, omega0, anchor, warm=cold, dual_tol=1e-9)
        assert calls == []
        assert warm.projections is cold.projections
        for b in (cold, warm):
            assert not any(name in vars(b) for name in self.LAZY)
        # a read computes them once; maximizers is nu_F, as on the other paths
        assert warm.maximizers is warm.nu_F
        assert all(isinstance(vars(warm)[name], np.ndarray) for name in self.LAZY)
        assert calls == []

    @pytest.mark.parametrize("kind", ["quartic_a2", "quartic_a2_prime", "quartic_a3"])
    def test_warm_quartic_geometry_solves_nothing(self, kind, monkeypatch):
        norm, omega0 = self.NORMS[kind], -0.4
        anchor = anchor_vector(norm, omega0)
        grid = HalfSphereGrid(2, 24, 48)
        cold = geometry(smooth_surface(grid, 1), norm, omega0, anchor)
        calls = []
        for cls, name in ((Norm, "dual_metric"), (Norm, "metric_times"), (Norm, "support_many"),
                          (QuarticGaugeNorm, "_support_components"),
                          (QuarticGaugeNorm, "gauge_jets"), (ShiftedGaugeNorm, "support_many"),
                          (ShiftedGaugeNorm, "gauge_jets")):
            monkeypatch.setattr(cls, name, lambda *a, name=name, **k: calls.append(name))
        warm = geometry(smooth_surface(grid, 2), norm, omega0, anchor, warm=cold, dual_tol=1e-9)
        assert calls == []
        assert warm.projections is cold.projections and warm.maximizer_jets is None
        assert not any(name in vars(warm) for name in self.LAZY)

    @pytest.mark.parametrize("kind", sorted(NORMS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_field_matches_the_generic_dual_metric_path(self, kind, seed):
        norm, omega0 = self.NORMS[kind], -0.4
        anchor = anchor_vector(norm, omega0)
        surf = smooth_surface(HalfSphereGrid(2, 24, 48), seed)
        got = geometry(surf, norm, omega0, anchor)
        want = geometry(surf, GenericPath(norm), omega0, anchor)
        # only the generic path forms the normals and solves for nu_F
        assert not any(name in vars(got) for name in self.LAZY)
        assert all(name in vars(want) for name in self.LAZY)
        names = TestClosedFormMetric.FIELDS + ("u_bar", "area_el", "Hk")
        pairs = [(getattr(got, k), getattr(want, k), k) for k in names]
        pairs += [(got.parts[k], want.parts[k], k) for k in want.parts]
        for g, w, name in pairs:
            assert np.shape(g) == np.shape(w), name
            assert np.all(np.abs(g - w) <= 1e-13 * np.abs(w).max()), name

    @given(seed=st.integers(0, 2**32 - 1), nb=st.sampled_from([8, 16, 24]))
    @settings(max_examples=10, deadline=None)
    def test_stencils_are_the_roll_formulas_bitwise(self, seed, nb):
        grid = HalfSphereGrid(2, nb, 2 * nb)
        surf = smooth_surface(grid, seed)
        rho, derivs = _stencils_n2(surf)
        phi, db, dl = surf.phi, grid.dbeta, grid.dlam
        rows, up, down = phi[1 : nb + 1], phi[2 : nb + 2], phi[:nb]
        sb, cot = np.sin(grid.betas[1:])[:, None], np.cos(grid.betas[1:])[:, None]
        cot = cot / sb
        p_b = (up - down) / (2 * db)
        p_l = (np.roll(rows, -1, axis=1) - np.roll(rows, 1, axis=1)) / (2 * dl)
        p_bl = (np.roll(up, -1, axis=1) - np.roll(up, 1, axis=1)
                - np.roll(down, -1, axis=1) + np.roll(down, 1, axis=1)) / (4 * db * dl)
        p_ll = (np.roll(rows, -1, axis=1) - 2 * rows + np.roll(rows, 1, axis=1)) / dl**2
        want = (p_b, p_l / sb, (up - 2 * rows + down) / db**2, (p_bl - cot * p_l) / sb,
                p_ll / sb**2 + cot * p_b)
        assert derivs.shape == (5, nb * 2 * nb) and derivs.flags.c_contiguous
        assert np.array_equal(rho, np.exp(rows).ravel())
        for row, w in zip(derivs, want):
            assert np.array_equal(row, w.ravel())

"""Model shapes, anchor direction, and the translated-ball transfer rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow.norms import Norm, ShiftedGaugeNorm, make_norm
from capflow.wulff import (
    RAY_MAX_ITER,
    AnchorVector,
    CapillaryWulffShape,
    TranslatedNorm,
    WulffError,
    admissible_interval,
    anchor_vector,
    ray_roots,
    translated_metric_Q,
    vertical,
)

SPHERE = make_norm("sphere")
ELLIPSOID = make_norm("ellipsoid", [4.0, 1.0, 1.0])
A2 = make_norm("quartic_a2")


class TestAnchor:
    def test_admissible_interval_sphere(self):
        assert admissible_interval(SPHERE) == pytest.approx((-1.0, 1.0))

    def test_admissible_interval_ellipsoid(self):
        lo, hi = admissible_interval(ELLIPSOID)
        assert lo == pytest.approx(-1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("omega0", [-0.7, -0.3, 0.0, 0.3, 0.7])
    def test_unit_pairing(self, omega0):
        anchor = anchor_vector(A2, omega0)
        assert anchor.e_f @ vertical(3) == pytest.approx(1.0, abs=1e-10)

    def test_sphere_anchor_is_vertical(self):
        for omega0 in (-0.5, 0.0, 0.5):
            anchor = anchor_vector(SPHERE, omega0)
            assert np.allclose(anchor.e_f, [0.0, 0.0, 1.0], atol=1e-10)

    def test_out_of_range_rejected(self):
        with pytest.raises(WulffError):
            anchor_vector(SPHERE, -1.5)


class TestCapillaryShape:
    def test_sphere_cap_radial(self):
        # sphere norm: shape is a ball of radius r centered at r*omega0*E3
        omega0 = -0.5
        shape = CapillaryWulffShape(SPHERE, 2.0, omega0)
        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        rho = shape.radial_many(dirs)
        # pole: rho = r(1 + omega0) along +z when omega0 < 0
        assert rho[0] == pytest.approx(2.0 * (1.0 + omega0), abs=1e-10)
        # equator: |x - c| = r with c on the z-axis
        assert rho[1] == pytest.approx(2.0 * np.sqrt(1 - omega0**2), abs=1e-10)

    def test_boundary_height_zero(self):
        shape = CapillaryWulffShape(A2, 1.0, -0.3)
        angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles), np.zeros(16)], axis=1)
        pts = shape.surface_points(dirs)
        assert np.abs(pts[:, 2]).max() < 1e-12

    def test_gauge_level_set(self):
        shape = CapillaryWulffShape(A2, 1.7, -0.3)
        rng = np.random.default_rng(2)
        u = rng.normal(size=(50, 3))
        u[:, 2] = np.abs(u[:, 2])
        u /= np.linalg.norm(u, axis=1)[:, None]
        pts = shape.surface_points(u)
        vals = A2.f0_many((pts - shape.center) / shape.r)
        assert np.abs(vals - 1.0).max() < 1e-9

    @pytest.mark.parametrize(
        "norm,omega0",
        [(SPHERE, -0.5), (SPHERE, 0.0), (A2, -0.3), (A2, 0.3)],
        ids=["sphere-cap", "hemisphere", "quartic-neg", "quartic-pos"],
    )
    def test_static_residual(self, norm, omega0):
        shape = CapillaryWulffShape(norm, 1.0, omega0)
        assert shape.static_residual(sample_count=500) < 1e-8

    def test_negative_radius(self):
        with pytest.raises(WulffError):
            CapillaryWulffShape(SPHERE, -1.0, 0.0)


class TestTranslatedNorm:
    def test_tilde_support_matches_shifted_gauge(self):
        tn = TranslatedNorm(A2, -0.3)
        shifted = ShiftedGaugeNorm(A2, tn.eta)
        rng = np.random.default_rng(4)
        for x in rng.normal(size=(5, 3)):
            # the generic Newton on the shifted gauge, not its closed form,
            # which is the translated support itself
            s = Norm.support_many(shifted, x[None], tol=1e-15)[0][0]
            assert tn.tilde_support(x) == pytest.approx(s, abs=1e-8)

    def test_transfer_matches_direct_jets(self):
        # the transferred G and Q must equal the tensors of the shifted gauge
        # evaluated at the translated points, for tangent arguments
        tn = TranslatedNorm(A2, -0.3)
        shifted = ShiftedGaugeNorm(A2, tn.eta)
        angles = np.linspace(0.1, 2 * np.pi, 6, endpoint=False)
        zs = tn.slice_points(angles)
        grads = A2.gauge_jets(zs, order=2)[1:4].T
        rng = np.random.default_rng(8)
        for z, g in zip(zs, grads):
            # tangent vectors at z on the base ball
            t1, t2 = rng.normal(size=(2, 3))
            t1 -= (t1 @ g) / (g @ g) * g
            t2 -= (t2 @ g) / (g @ g) * g
            g_t, q_t = translated_metric_Q(tn, z, t1, t1, t2)
            zt = (z + tn.eta)[None, :]
            g_direct = shifted.metric_G_many(zt)[0]
            q_direct = shifted.tensor_Q_many(zt)[0]
            assert g_t == pytest.approx(t1 @ g_direct @ t1, abs=1e-9)
            assert q_t == pytest.approx(
                np.einsum("ijk,i,j,k->", q_direct, t1, t1, t2), abs=1e-8
            )

    def test_ellipsoid_transfer_closed_form(self):
        # quadratic gauge sqrt(x M x): Q = 0, so the transferred third-order
        # tensor reduces to the pure metric correction term
        omega0 = -0.4
        tn = TranslatedNorm(ELLIPSOID, omega0)
        z = tn.slice_points(np.array([0.0]))[0]
        g = ELLIPSOID.gauge_jets(z[None, :], order=2)[1:4, 0]
        t = np.array([0.0, 1.0, 0.0])
        t = t - (t @ g) / (g @ g) * g
        g_t, q_t = translated_metric_Q(tn, z, t, t, t)
        g_mat = ELLIPSOID.metric_G_many(z[None, :])[0]
        c = 1.0 + g_mat @ tn.eta @ z
        tt = float(t @ g_mat @ t)
        te = float(t @ g_mat @ tn.eta)
        assert q_t == pytest.approx(-3.0 * tt * te / c**2, rel=1e-8)

    def test_slice_support_positive_and_periodic(self):
        tn = TranslatedNorm(A2, -0.3)
        table = tn.slice_support_table(64)
        assert np.all(table > 0.0)
        # the quartic profile is rotationally symmetric about the axis
        assert table.max() - table.min() < 1e-6

    @pytest.mark.parametrize("axes", [[4.0, 1.0, 2.0], [1.0, 3.0, 1.5]])
    @pytest.mark.parametrize("omega0", [-0.3, 0.2])
    @pytest.mark.parametrize("samples", [64, 1024])
    def test_slice_support_matches_ellipse(self, axes, omega0, samples):
        # the slice x^2/a1 + y^2/a2 <= k, k = 1 - omega0^2/a3, has support
        # sqrt(k (a1 cos^2 t + a2 sin^2 t)); eta shifts it by <eta, n>
        tn = TranslatedNorm(make_norm("ellipsoid", axes), omega0)
        t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        k = 1.0 - omega0**2 / axes[2]
        exact = np.sqrt(k * (axes[0] * np.cos(t) ** 2 + axes[1] * np.sin(t) ** 2)) \
            + tn.eta[0] * np.cos(t) + tn.eta[1] * np.sin(t)
        np.testing.assert_allclose(tn.slice_support_table(samples), exact, rtol=0, atol=1e-12)

    def test_slice_support_bounds_a_dense_sweep(self):
        # quartic_a2_prime goes through the generic Newton closure; the max of
        # <n, p> over a dense sweep of slice points p is a lower bound that
        # misses the support by O(spacing^2), and meets it to round-off where
        # a sweep point is the maximizer (on the symmetry axes)
        tn = TranslatedNorm(make_norm("quartic_a2_prime"), -0.3)
        t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        pts = tn.slice_points(np.linspace(0.0, 2.0 * np.pi, 65536, endpoint=False)) + tn.eta
        sweep = (np.stack([np.cos(t), np.sin(t)], axis=1) @ pts[:, :2].T).max(axis=1)
        gap = tn.slice_support_table(64) - sweep
        assert gap.min() >= -1e-15 and gap.max() <= 1e-8

    def test_origin_must_stay_interior(self):
        anchor = AnchorVector(np.array([0.0, 0.0, 1.0]), -2.0)
        with pytest.raises(WulffError):
            TranslatedNorm(SPHERE, -2.0, anchor)


RAY_NORMS = {
    "quartic_a2": A2,
    "sphere": SPHERE,
    "quartic_a3": make_norm("quartic_a3", [0.3]),
}
ANGLES = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))


def unit(polar_azimuth):
    b, a = polar_azimuth
    return np.array([np.sin(b) * np.cos(a), np.sin(b) * np.sin(a), np.cos(b)])


class TestRayRoots:
    @given(
        kind=st.sampled_from(sorted(RAY_NORMS)),
        dirs=st.lists(ANGLES, min_size=1, max_size=8),
        offset_dir=ANGLES,
        depth=st.floats(0.0, 0.95),
        level=st.floats(0.05, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_roots_lie_on_the_level_set(self, kind, dirs, offset_dir, depth, level):
        norm = RAY_NORMS[kind]
        u = np.array([unit(x) for x in dirs])
        w = unit(offset_dir)
        # an interior offset: gauge(offset) = depth * level < level
        offset = depth * level * w / norm.f0(w)
        rho, passes = ray_roots(norm, u, offset, level)
        vals = norm.f0_many(rho[:, None] * u + offset)
        assert np.all(np.abs(vals - level) <= 1e-12 * level)
        assert np.all(rho > 0.0)
        assert passes <= RAY_MAX_ITER // 4

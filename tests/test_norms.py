"""Dual-gauge machinery: support solves, derived tensors, builtin catalogue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow import expr as expr_mod
from capflow.expr import jet_rows, triangle_matrices, triple_tensors
from capflow.norms import (
    DUAL_MAX_ITER,
    DUAL_TOL,
    DualSolveError,
    ExpressionNorm,
    Norm,
    NormError,
    QUARTIC_A2_TEXT,
    QuadraticNorm,
    QuarticGaugeNorm,
    fibonacci_sphere,
    make_norm,
    metric_components,
    solve_components,
)
from capflow.surface import HalfSphereGrid
from finite_differences import finite_difference_jet

SPHERE = make_norm("sphere")
ELLIPSOID = make_norm("ellipsoid", [4.0, 1.0, 1.0])
A2 = make_norm("quartic_a2")


def dense_support_oracle(norm, x, count=200_000):
    """Brute-force support value by sampling the unit level set densely."""
    dirs = fibonacci_sphere(count)
    boundary = dirs / norm.f0_many(dirs)[:, None]
    vals = boundary @ x
    i = int(np.argmax(vals))
    return float(vals[i]), boundary[i]


class TestSupport:
    def test_euclidean_self_duality(self):
        res = SPHERE.support(np.array([1.0, 2.0, 2.0]))
        assert res.value == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(res.maximizer, [1 / 3, 2 / 3, 2 / 3], atol=1e-12)

    def test_ellipsoid_axis(self):
        res = ELLIPSOID.support(np.array([1.0, 0.0, 0.0]))
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert np.allclose(res.maximizer, [2.0, 0.0, 0.0], atol=1e-8)

    def test_quartic_pole(self):
        res = A2.support(np.array([0.0, 0.0, 1.0]))
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(res.maximizer, [0.0, 0.0, 1.0], atol=1e-7)

    @pytest.mark.parametrize("norm", [ELLIPSOID, A2], ids=["ellipsoid", "quartic"])
    def test_against_dense_sampling(self, norm):
        rng = np.random.default_rng(3)
        for x in rng.normal(size=(4, 3)):
            val, zmax = dense_support_oracle(norm, x)
            res = norm.support(x)
            assert res.value == pytest.approx(val, rel=1e-4)
            assert np.linalg.norm(res.maximizer - zmax) < 5e-2

    def test_zero_direction_rejected(self):
        with pytest.raises(NormError):
            A2.support_many(np.zeros((1, 3)))

    def test_warm_start_converges_fast(self):
        dirs = fibonacci_sphere(500)
        _, z, _, ok = A2.support_many(dirs)
        assert np.all(ok)
        # re-solving from the previous maximizers takes at most two sweeps
        _, z2, iters, ok2 = A2.support_many(dirs, z0=z)
        assert np.all(ok2) and iters <= 2
        assert np.allclose(z, z2, atol=1e-9)

    def test_kkt_stationarity(self):
        dirs = fibonacci_sphere(100)
        f_val, z, _, ok = A2.support_many(dirs)
        grad = A2.gauge_jets(z, order=2)[1:4].T
        # x - s * Dgauge(z*) = 0 at the maximizer
        res = dirs - f_val[:, None] * grad
        assert np.abs(res).max() < 1e-8


class TestDuality:
    @pytest.mark.parametrize(
        "norm,tol",
        [(SPHERE, 1e-12), (ELLIPSOID, 1e-7), (A2, 1e-7)],
        ids=["sphere", "ellipsoid", "quartic"],
    )
    def test_inverse_gauge_identities(self, norm, tol):
        rep = norm.verify_duality(samples=100)
        assert rep["all_converged"]
        assert rep["gauge_of_maximizer"] <= tol
        assert rep["gradient_alignment"] <= tol
        assert rep["metric_pairing"] <= tol

    def test_euler_identities(self):
        dirs = fibonacci_sphere(200)
        pts = 1.3 * dirs
        jets = A2.gauge_jets(pts, order=2)
        euler1 = np.einsum("ni,ni->n", jets[1:4].T, pts) - jets[0]
        euler2 = np.einsum("nij,nj->ni", triangle_matrices(jets[4:], 3), pts)
        assert np.abs(euler1).max() < 1e-8
        assert np.abs(euler2).max() < 1e-8

    def test_metric_zero_homogeneous(self):
        dirs = fibonacci_sphere(50)
        g1 = A2.metric_G_many(dirs)
        for lam in (0.5, 2.0):
            g2 = A2.metric_G_many(lam * dirs)
            assert np.abs(g1 - g2).max() < 1e-8

    def test_metric_normalizes_boundary_points(self):
        dirs = fibonacci_sphere(50)
        z = dirs / A2.f0_many(dirs)[:, None]
        g = A2.metric_G_many(z)
        pair = np.einsum("ni,nij,nj->n", z, g, z)
        assert np.abs(pair - 1.0).max() < 1e-10


class TestTensors:
    def test_quadratic_q_vanishes(self):
        for norm in (SPHERE, ELLIPSOID):
            q = norm.tensor_Q_many(fibonacci_sphere(50))
            assert np.abs(q).max() <= 1e-10

    def test_radial_contraction_vanishes(self):
        dirs = fibonacci_sphere(50)
        z = dirs / A2.f0_many(dirs)[:, None]
        q = A2.tensor_Q_many(z)
        contr = np.einsum("nijk,ni->njk", q, z)
        assert np.abs(contr).max() < 1e-8

    def test_q_fully_symmetric(self):
        q = A2.tensor_Q_many(fibonacci_sphere(20))
        for perm in [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]:
            assert np.allclose(q, q.transpose(*perm), atol=1e-12)

    def test_quartic_matches_expression_norm(self):
        hand = QuarticGaugeNorm(1.0)
        sym = ExpressionNorm(expr_mod.parse(QUARTIC_A2_TEXT, dim=3))
        pts = np.random.default_rng(1).normal(size=(100, 3))
        jh = hand.gauge_jets(pts, order=3)
        js = sym.gauge_jets(pts, order=3)
        assert np.allclose(jh[0], js[0], atol=1e-13)
        assert np.allclose(jh[1:4], js[1:4], atol=1e-13)
        assert np.allclose(jh[4:10], js[4:10], atol=1e-12)
        assert np.allclose(jh[10:], js[10:], atol=1e-11)


class TestSupportHessian:
    def test_ellipsoid_curvature_matrix(self):
        # support of diag(1/A,1/B,1/C) gauge is sqrt(A x^2 + B y^2 + C z^2);
        # at nu = E3 its tangent Hessian is diag(A, B)
        nu = np.array([0.0, 0.0, 1.0])
        m = ELLIPSOID.a_f_matrix(nu)
        assert np.allclose(m, np.diag([4.0, 1.0]), atol=1e-8)

    def test_sphere_identity(self):
        for nu in fibonacci_sphere(20):
            assert np.allclose(SPHERE.a_f_matrix(nu), np.eye(2), atol=1e-10)

    def test_positive_definite_everywhere(self):
        dirs = fibonacci_sphere(300)
        for nu in dirs[::30]:
            eig = np.linalg.eigvalsh(A2.a_f_matrix(nu))
            assert eig[0] > 0.0

    def test_matches_fd_hessian_of_support(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=3)

        def supp(p):
            return A2.support(p).value

        fd = finite_difference_jet(supp, x, h=1e-5)
        f_val, z, _, ok = A2.support_many(x[None, :])
        hess = A2.support_hessian_many(x[None, :], maximizers=z)[0]
        assert np.allclose(hess, fd.hess, atol=1e-5)


class TestCatalogue:
    def test_kinds(self):
        for kind, params in [
            ("sphere", None), ("ellipsoid", [4.0, 1.0, 1.0]),
            ("quartic_a2", None), ("quartic_a2_prime", None),
            ("quartic_a3", [0.3]),
        ]:
            norm = make_norm(kind, params)
            assert norm.homogeneity_residual() < 1e-8

    def test_custom_expression(self):
        norm = make_norm("custom", f0_expr="(x^4+y^4+z^4+(x^2+y^2+z^2)^2)^(1/4)")
        assert norm.f0(np.array([1.0, 1.0, 1.0])) == pytest.approx(12.0**0.25)

    @pytest.mark.parametrize("norm", [SPHERE, ELLIPSOID, A2], ids=lambda n: n.name)
    def test_single_point_gauge_of_a_tiny_vector(self, norm):
        # omega0 E_up at an admissible |omega0| = 1e-300 squares to 0
        v = np.array([0.3, -0.2, 1.0])
        assert norm.f0(1e-300 * v) == pytest.approx(1e-300 * norm.f0(v), rel=1e-14)

    def test_l4_ball_rejected_at_load(self):
        # its G is rank one only at the axis points, which the load check samples
        with pytest.raises(NormError, match="degenerate"):
            make_norm("custom", f0_expr="(x^4+y^4+z^4)^(1/4)")

    def test_unknown_kind(self):
        with pytest.raises((NormError, ValueError)):
            make_norm("octahedron")

    def test_ellipticity_report(self):
        rep = ELLIPSOID.ellipticity_report(samples=200)
        assert rep["min_eigenvalue"] == pytest.approx(0.25, abs=1e-6)
        assert not rep["near_degenerate"]

    def test_dim_four(self):
        norm = make_norm("sphere", dim=4)
        assert norm.d == 4
        res = norm.support(np.array([0.0, 0.0, 0.0, 2.0]))
        assert res.value == pytest.approx(2.0, abs=1e-12)


# -- property tests of the eliminated Newton step ----------------------------

SOLVE_NORMS = {
    "quartic_a2": A2,
    "quartic_a2_prime": make_norm("quartic_a2_prime"),
    "quartic_a3": make_norm("quartic_a3", [0.3]),
    "custom": make_norm("custom", f0_expr=QUARTIC_A2_TEXT),
    "custom_d4": make_norm(
        "custom", f0_expr="((x^2+y^2+z^2+w^2)*(x^2+y^2+z^2)+w^4)^(1/4)", dim=4
    ),
}
# polar angle from the vertical axis: near either pole, near the rim, anywhere
POLAR = st.one_of(
    st.floats(0.0, 1e-4),
    st.floats(np.pi / 2 - 1e-4, np.pi / 2 + 1e-4),
    st.floats(np.pi - 1e-4, np.pi),
    st.floats(0.0, np.pi),
)
DIRECTION = st.tuples(POLAR, st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))


def direction(angles, d):
    """Point of the unit sphere in R^d; the last coordinate is the vertical."""
    polar, mid, azimuth = angles
    horizontal = np.array([np.cos(azimuth), np.sin(azimuth)])
    if d == 4:
        horizontal = np.append(np.sin(mid) * horizontal, np.cos(mid))
    return np.append(np.sin(polar) * horizontal, np.cos(polar))


def bordered_support(norm, x, tol=DUAL_TOL):
    """Reference for one direction: damped Newton on the bordered system

        [ -s Hess  -Dgauge ] [dz]      [ x - s Dgauge ]
        [ Dgauge^T    0    ] [ds] = -  [  gauge - 1   ]
    """
    d = x.size
    z = x / norm.f0(x)
    s = float(x @ z)
    scale = max(1.0, float(np.linalg.norm(x)))

    def residual(z, s):
        jet = norm.gauge_jets(z[None, :], order=2)
        r = np.append(x - s * jet[1 : d + 1, 0], jet[0, 0] - 1.0)
        return jet, r, np.linalg.norm(r) / scale

    jet, r, rnorm = residual(z, s)
    for _ in range(DUAL_MAX_ITER):
        if rnorm <= tol:
            break
        jac = np.zeros((d + 1, d + 1))
        jac[:d, :d] = -s * triangle_matrices(jet[d + 1 :], d)[0]
        jac[:d, d] = -jet[1 : d + 1, 0]
        jac[d, :d] = jet[1 : d + 1, 0]
        delta = np.linalg.solve(jac, -r)
        step = 1.0
        for _ in range(30):
            with np.errstate(all="ignore"):
                trial = residual(z + step * delta[:d], s + step * delta[d])
            if np.isfinite(trial[2]) and trial[2] <= rnorm:
                break
            step *= 0.5
        z, s = z + step * delta[:d], s + step * delta[d]
        jet, r, rnorm = trial
    return s, z


def solve_metrics(g_mat, rhs):
    """solve_components on the upper triangles of G (N, d, d), rhs (N, d, k)."""
    i, j = np.triu_indices(g_mat.shape[-1])
    return solve_components(g_mat[:, i, j].T, rhs.transpose(1, 2, 0)).transpose(2, 0, 1)


class TestEliminatedSolve:
    @given(
        kind=st.sampled_from(sorted(SOLVE_NORMS)),
        angles=st.lists(DIRECTION, min_size=1, max_size=6),
        length=st.floats(0.5, 4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_maximizer_identities_and_bordered_reference(self, kind, angles, length):
        norm = SOLVE_NORMS[kind]
        xs = length * np.array([direction(a, norm.d) for a in angles])
        # the generic Newton, which the quartic norms' closed form bypasses
        s, z, _, ok = Norm.support_many(norm, xs)
        assert np.all(ok)
        jets = norm.gauge_jets(z, order=2)
        # the solve stops once |(r_x, r_g)| <= DUAL_TOL * max(1, |x|)
        tol = DUAL_TOL * max(1.0, length)
        r_x = xs - s[:, None] * jets[1 : norm.d + 1].T
        assert np.abs(jets[0] - 1.0).max() <= tol
        assert np.linalg.norm(r_x, axis=1).max() <= tol
        # <x, z> - s = <r_x, z> + s * r_g by Euler's identity <Dgauge(z), z> = gauge(z)
        gap = np.abs(s - np.einsum("ni,ni->n", xs, z))
        assert np.all(gap <= tol * (np.linalg.norm(z, axis=1) + s))
        for x, s_i, z_i in zip(xs, s, z):
            s_ref, z_ref = bordered_support(norm, x)
            assert abs(s_i - s_ref) <= tol
            assert np.abs(z_i - z_ref).max() <= tol

    @given(
        kind=st.sampled_from(sorted(SOLVE_NORMS)),
        angles=st.lists(DIRECTION, min_size=1, max_size=6),
        shift=st.floats(-0.05, 0.05),
    )
    @settings(max_examples=40, deadline=None)
    def test_given_warm_jets_change_nothing(self, kind, angles, shift):
        norm = SOLVE_NORMS[kind]
        xs = np.array([direction(a, norm.d) for a in angles])
        _, z, _, _ = norm.support_many(xs)
        z0 = z * (1.0 + shift) + shift * np.roll(z, 1, axis=1)
        jets0 = norm.gauge_jets(z0)
        given_jets = norm.support_many(xs, z0=z0, jets0=jets0)
        recomputed = norm.support_many(xs, z0=z0)
        for a, b in zip(given_jets, recomputed):
            assert np.array_equal(a, b)
        # the caller's jets are not modified
        assert np.array_equal(jets0, norm.gauge_jets(z0))

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_closed_form_matches_lapack_on_spd(self, seed, count):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((count, 3, 3))
        g_mat = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(3)
        rhs = rng.standard_normal((count, 3, 2))
        got = solve_metrics(g_mat, rhs)
        want = np.linalg.solve(g_mat, rhs)
        bound = 1e-12 * np.linalg.cond(g_mat)[:, None, None] * np.abs(want).max()
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("d", [3, 4])
    def test_singular_or_nonfinite_metric_raises(self, d):
        good = np.broadcast_to(np.eye(d), (2, d, d)).copy()
        rhs = np.ones((2, d, 1))
        rank_one = good.copy()
        rank_one[1] = np.outer(np.arange(1.0, d + 1), np.arange(1.0, d + 1))
        with pytest.raises(DualSolveError):
            solve_metrics(rank_one, rhs)
        not_finite = good.copy()
        not_finite[0, 0, 1] = not_finite[0, 1, 0] = np.nan
        with pytest.raises(DualSolveError):
            solve_metrics(not_finite, rhs)

    def test_singular_metric_in_the_solve_raises(self):
        # at an axis point of the l4 ball the Hessian vanishes and G is rank
        # one; built directly, since make_norm rejects it at load
        norm = ExpressionNorm(expr_mod.parse("(x^4+y^4+z^4)^(1/4)", dim=3))
        with pytest.raises(DualSolveError):
            norm.support_many(np.array([[1.0, 0.1, 0.0]]), z0=np.array([[1.0, 0.0, 0.0]]))


def gather_support(norm, xs, z0, jets0, tol=DUAL_TOL):
    """Oracle of the full-array Newton loop: the same solve as it ran before,
    gathering the rows above tol each iteration and scattering them back.
    Returns (values, maximizers, iterations, converged, jets)."""
    d = xs.shape[1]
    norms_x = np.linalg.norm(xs, axis=1)
    x = np.ascontiguousarray(xs.T)
    start = np.ascontiguousarray(z0.T)
    c = jets0[0]
    z = start / c
    jet = np.empty(jets0.shape)
    jet[0] = 1.0
    jet[1 : d + 1] = jets0[1 : d + 1]
    jet[d + 1 :] = jets0[d + 1 :] * c
    s = (x * z).sum(axis=0)
    scale = np.maximum(1.0, norms_x)

    def residual_norm(xa, sa, jeta, scale_a):
        r = np.empty((d + 1, xa.shape[1]))
        r[:d] = xa - sa * jeta[1 : d + 1]
        r[d] = jeta[0] - 1.0
        return r, np.sqrt((r * r).sum(axis=0)) / scale_a

    r, rnorm = residual_norm(x, s, jet, scale)
    iterations = 0
    for iterations in range(1, DUAL_MAX_ITER + 1):
        act = np.nonzero(rnorm > tol)[0]
        if act.size == 0:
            break
        xa, za, sa, ra, ja = x[:, act], z[:, act], s[act], r[:, act], jet[:, act]
        ga, grad = ja[0], ja[1 : d + 1]
        w = solve_components(metric_components(ja, d), ra[:d], norm.name)
        ds = (grad * w).sum(axis=0)
        dz = (ga / sa) * w - (ds / sa + ra[d] / ga) * za
        step = 1.0
        for _ in range(30):
            z_try = za + step * dz
            s_try = sa + step * ds
            with np.errstate(all="ignore"):
                jet_try = norm.gauge_jets(z_try.T)
                r_try, rnorm_try = residual_norm(xa, s_try, jet_try, scale[act])
            if np.all(np.isfinite(rnorm_try) & (rnorm_try <= rnorm[act])):
                break
            step *= 0.5
        z[:, act], s[act], r[:, act], rnorm[act] = z_try, s_try, r_try, rnorm_try
        jet[:, act] = jet_try
    return s, z.T, iterations, rnorm <= max(tol, DUAL_TOL) * 10, jet


# how a row of a warm batch starts: at its converged maximizer with the
# solve's own jets, perturbed from it, cold at its direction, or from a NaN
# direction (a NaN start residual)
ROW_STARTS = ("converged", "perturbed", "cold", "nan")


class TestFullArrayLoop:
    @given(
        kind=st.sampled_from(["quartic_a2", "quartic_a2_prime", "custom", "custom_d4"]),
        rows=st.lists(st.tuples(DIRECTION, st.sampled_from(ROW_STARTS), st.floats(-0.05, 0.05)),
                      min_size=1, max_size=12),
        length=st.floats(0.5, 4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_gather_loop_on_mixed_batches(self, kind, rows, length):
        norm = SOLVE_NORMS[kind]
        d = norm.d
        xs = length * np.array([direction(a, d) for a, _, _ in rows])
        # the generic Newton, which the quartic norms' closed form bypasses
        _, z, _, ok, jets = Norm.support_many(norm, xs, return_jets=True)
        assert np.all(ok)
        z0 = z.copy()
        for i, (_, start, shift) in enumerate(rows):
            if start == "perturbed":
                z0[i] = z[i] * (1.0 + shift) + shift * np.roll(z[i], 1)
            elif start == "cold":
                z0[i] = xs[i]
        jets0 = norm.gauge_jets(z0)
        at_max = np.array([start in ("converged", "nan") for _, start, _ in rows])
        jets0[:, at_max] = jets[:, at_max]
        nan_row = np.array([start == "nan" for _, start, _ in rows])
        xs[nan_row] = np.nan
        got = Norm.support_many(norm, xs, z0=z0, return_jets=True, jets0=jets0)
        want = gather_support(norm, xs, z0, jets0)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        # the rows that start at tol come back bitwise unchanged
        x = np.ascontiguousarray(xs.T)
        z_start = np.ascontiguousarray(z0.T) / jets0[0]
        s_start = (x * z_start).sum(axis=0)
        r_x = x - s_start * jets0[1 : d + 1]
        scale = np.maximum(1.0, np.linalg.norm(xs, axis=1))
        at_tol = np.sqrt((r_x * r_x).sum(axis=0)) / scale <= DUAL_TOL
        assert got[0][at_tol].tobytes() == s_start[at_tol].tobytes()
        assert got[1][at_tol].tobytes() == z_start.T[at_tol].tobytes()
        # a NaN start residual stays put, unconverged, and raises nothing
        assert not got[3][nan_row].any()


    @pytest.mark.parametrize("kind", ["quartic_a2", "quartic_a2_prime", "custom"])
    def test_a_nan_start_point_is_left_unconverged(self, kind):
        # NaN jets at one start point give that row a non-finite metric; the
        # row is never above tol, so it must not reach the metric check, and
        # the expression gauge, which rejects a NaN point, never sees it
        norm = SOLVE_NORMS[kind]
        angles = [(0.3, 0.0, 1.0), (1.2, 0.0, 4.0), (2.9, 0.0, 2.0)]
        xs = np.array([direction(a, 3) for a in angles])
        z0 = xs * 1.03
        jets0 = norm.gauge_jets(z0)
        jets0[:, 1] = np.nan
        got = Norm.support_many(norm, xs, z0=z0, return_jets=True, jets0=jets0)
        assert got[3].tolist() == [True, False, True]
        for a, b in zip(got, gather_support(norm, xs, z0, jets0)):
            assert np.array_equal(a, b, equal_nan=True)


# -- component-major jets and the solve on them --------------------------------

QUARTICS = {
    1.0: ("quartic_a2", QUARTIC_A2_TEXT),
    2.0: ("quartic_a2_prime", "((x^2+2*y^2+z^2)*(x^2+2*y^2)+z^4)^(1/4)"),
}
# one norm of each kind
JET_NORMS = {"sphere": SPHERE, "ellipsoid": ELLIPSOID, **{
    kind: SOLVE_NORMS[kind] for kind in ("quartic_a2", "quartic_a2_prime", "quartic_a3", "custom")}}
SYMMETRIES = [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]


class TestComponentJets:
    @given(kind=st.sampled_from(sorted(JET_NORMS)),
           angles=st.lists(DIRECTION, min_size=1, max_size=8), length=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_quartic_components_are_its_jets(self, kind, angles, length):
        norm = JET_NORMS[kind]
        pts = length * np.array([direction(a, 3) for a in angles])
        order2, order3 = norm.gauge_jets(pts, order=2), norm.gauge_jets(pts, order=3)
        assert order3.shape == (jet_rows(3, 3), len(pts))
        # the order-2 jets are the leading rows of the order-3 jets
        assert np.array_equal(order2, order3[: jet_rows(3, 2)])
        # every dense expansion is symmetric bit for bit
        for mat in (triangle_matrices(order3[4:10], 3), norm.metric_G_many(pts, jets=order2)):
            assert np.array_equal(mat, mat.transpose(0, 2, 1))
        for ten in (triple_tensors(order3[10:], 3), norm.tensor_Q_many(pts, jets=order3)):
            for perm in SYMMETRIES:
                assert np.array_equal(ten, ten.transpose(*perm))

    @given(c=st.sampled_from(sorted(QUARTICS)), angles=st.lists(DIRECTION, min_size=1, max_size=8),
           length=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_quartic_components_match_the_expression_norm(self, c, angles, length):
        kind, text = QUARTICS[c]
        pts = length * np.array([direction(a, 3) for a in angles])
        hand = make_norm(kind).gauge_jets(pts)
        sym = make_norm("custom", f0_expr=text).gauge_jets(pts)
        # value ~ |x|, gradient ~ 1, Hessian ~ 1/|x|
        scale = np.array([length] + [1.0] * 3 + [1.0 / length] * 6)[:, None]
        assert np.all(np.abs(hand - sym) <= 1e-12 * scale)

    @given(angles=st.lists(DIRECTION, min_size=1, max_size=6), length=st.floats(0.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_four_dimensional_solve_on_components(self, angles, length):
        norm = SOLVE_NORMS["custom_d4"]
        xs = length * np.array([direction(a, 4) for a in angles])
        s, z, _, ok, comps = norm.support_many(xs, return_jets=True)
        assert np.all(ok)
        # the returned jets are the gauge jets at the maximizers
        again = norm.gauge_jets(z)
        assert np.allclose(comps, again, rtol=1e-12, atol=1e-12)
        tol = DUAL_TOL * max(1.0, length)
        assert np.abs(comps[0] - 1.0).max() <= tol
        assert np.linalg.norm(xs - s[:, None] * comps[1:5].T, axis=1).max() <= tol
        assert np.all(np.abs(s - np.einsum("ni,ni->n", xs, z)) <= tol * (1.0 + s))


# -- closed-form duality of the builtin quartic and shifted gauges --------------

QUARTIC_NORMS = {1.0: A2, 2.0: SOLVE_NORMS["quartic_a2_prime"]}
A3 = SOLVE_NORMS["quartic_a3"]
SLICE_NORMS = {"quartic_a2": A2, "quartic_a2_prime": QUARTIC_NORMS[2.0]}
# the generic Newton run to round-off is the reference; the closed forms agree
# with it to CLOSED_FORM_TOL in values, maximizers and jets
CLOSED_FORM_TOL = 1e-13


def cubic_branch_direction(c, azimuth, sign):
    """A direction with |nu_z| = nu_r = sqrt(nu_x^2 + nu_y^2 / c), where the
    closed form swaps u and 1/u."""
    return np.array([np.cos(azimuth), np.sqrt(c) * np.sin(azimuth), sign])


def assert_matches_generic(norm, xs, return_jets=False):
    got = norm.support_many(xs, return_jets=return_jets)
    want = Norm.support_many(norm, xs, tol=1e-15, return_jets=return_jets)
    assert np.all(got[3]) and np.all(want[3])
    assert np.abs(got[0] - want[0]).max() <= CLOSED_FORM_TOL
    assert np.abs(got[1] - want[1]).max() <= CLOSED_FORM_TOL
    if return_jets:
        assert np.abs(got[4] - want[4]).max() <= CLOSED_FORM_TOL
    return got


class TestClosedFormDuality:
    @given(c=st.sampled_from(sorted(QUARTIC_NORMS)),
           angles=st.lists(DIRECTION, min_size=1, max_size=8),
           branch=st.lists(st.tuples(st.floats(0.0, 2.0 * np.pi), st.sampled_from([-1.0, 1.0]),
                                     st.floats(-1e-9, 1e-9)), max_size=4),
           length=st.floats(0.5, 4.0))
    @settings(max_examples=80, deadline=None)
    def test_quartic_support_matches_the_generic_newton(self, c, angles, branch, length):
        dirs = [direction(a, 3) for a in angles]
        # either side of |k| = 1 and on it
        dirs += [cubic_branch_direction(c, a, sign) * (1.0, 1.0, 1.0 + eps)
                 for a, sign, eps in branch]
        xs = length * np.array(dirs)
        s, z, _, _, jets = assert_matches_generic(QUARTIC_NORMS[c], xs, return_jets=True)
        # the returned jets are the gauge jets at the maximizers
        assert np.array_equal(jets, QUARTIC_NORMS[c].gauge_jets(z))

    @pytest.mark.parametrize("c", sorted(QUARTIC_NORMS))
    def test_quartic_support_at_the_poles_horizon_and_branch_swap(self, c):
        norm = QUARTIC_NORMS[c]
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -2.0]])
        horizontal = np.array([[1.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.6, 0.8, 0.0]])
        swap = np.array([cubic_branch_direction(c, a, sign)
                         for a in (0.0, 0.7, np.pi / 2) for sign in (-1.0, 1.0)])
        for xs in (poles, horizontal, swap):
            assert_matches_generic(norm, xs, return_jets=True)
        s, z, iterations, ok = norm.support_many(poles)
        assert s.tolist() == [1.0, 2.0] and iterations == 0
        assert z.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        # on a horizontal direction the maximizer lies in the plane z = 0
        assert np.all(norm.support_many(horizontal)[1][:, 2] == 0.0)

    @given(kind=st.sampled_from(sorted(SLICE_NORMS)), omega0=st.floats(-0.95, 0.95),
           azimuths=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=16),
           length=st.floats(0.01, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_slice_matches_the_generic_closure(self, kind, omega0, azimuths, length):
        norm = SLICE_NORMS[kind]
        h = length * np.array([np.cos(azimuths), np.sin(azimuths)])
        z, comps = norm.slice_maximizers(h, omega0)
        z_ref, comps_ref = Norm.slice_maximizers(norm, h, omega0)
        # the generic closure returns the value and gradient rows of the jets
        # at the points it returns
        assert np.array_equal(comps_ref, norm.gauge_jets(z_ref, 2)[:4])
        assert np.abs(z - z_ref).max() <= CLOSED_FORM_TOL
        assert np.abs(comps - comps_ref).max() <= CLOSED_FORM_TOL
        assert np.abs(z[:, 2] + omega0).max() <= 1e-15
        # on the slice, with the horizontal gradient along +h
        assert np.abs(comps[0] - 1.0).max() <= 1e-15
        assert np.all(h[0] * comps[1] + h[1] * comps[2] > 0.0)
        assert np.abs(h[0] * comps[2] - h[1] * comps[1]).max() <= 1e-14 * length

    @given(c=st.sampled_from(sorted(QUARTIC_NORMS)), omega0=st.floats(-0.95, 0.95),
           azimuths=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=16),
           length=st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_quartic_rim_rows_are_the_jets_rows(self, c, omega0, azimuths, length):
        norm = QUARTIC_NORMS[c]
        h = length * np.array([np.cos(azimuths), np.sin(azimuths)])
        z, comps = norm.slice_maximizers(h, omega0)
        assert np.array_equal(comps, norm.gauge_jets(z)[:4])

    @pytest.mark.parametrize("z0, omega0", [(0.3, -0.3), (-0.4, 0.2)])
    @given(azimuths=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=16),
           length=st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_shifted_slice_matches_the_generic_closure(self, z0, omega0, azimuths, length):
        norm = make_norm("quartic_a3", [z0])
        h = length * np.array([np.cos(azimuths), np.sin(azimuths)])
        z, comps = norm.slice_maximizers(h, omega0)
        z_ref, comps_ref = Norm.slice_maximizers(norm, h, omega0)
        # measured: 3.4e-16 in z and 5.6e-16 in the rows over 400 random rims
        assert np.abs(z - z_ref).max() <= 1e-14
        assert np.abs(comps - comps_ref).max() <= 1e-14
        assert np.abs(z[:, 2] + omega0).max() <= 1e-15

    @given(angles=st.lists(DIRECTION, min_size=1, max_size=8), length=st.floats(0.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_shifted_support_and_jets_match_the_generic_newton(self, angles, length):
        xs = length * np.array([direction(a, 3) for a in angles])
        s, z, _, _, jets = assert_matches_generic(A3, xs, return_jets=True)
        # the base support plus <x, eta>, at the base maximizer plus eta
        s_base, z_base, _, _ = A3.base.support_many(xs)
        assert np.array_equal(s, s_base + xs @ A3.eta)
        assert np.array_equal(z, z_base + A3.eta)
        # the jets at t = 1 are the ray-root jets there
        assert np.abs(jets - A3.gauge_jets(z, order=2)).max() <= CLOSED_FORM_TOL

    @pytest.mark.parametrize("norm", [SPHERE, make_norm("ellipsoid", [4.0, 1.0, 2.0])],
                             ids=lambda n: n.name)
    def test_quadric_zero_nan_huge_and_tiny_directions(self, norm):
        with pytest.raises(NormError):
            norm.support_many(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        xs = np.array([[0.3, 0.1, 0.9], [np.nan, 0.0, 1.0], [0.0, np.nan, np.nan], [1.0, 0.0, 0.0]])
        s, z, _, ok, jets = norm.support_many(xs, return_jets=True)
        assert ok.tolist() == [True, False, False, True]
        want = norm.support_many(xs[ok], return_jets=True)
        assert np.array_equal(s[ok], want[0]) and np.array_equal(z[ok], want[1])
        assert np.array_equal(jets[:, ok], want[4])
        # the quadratic form overflows at 2^600 and underflows at 2^-600; those
        # rows are solved again from x / max|x_i|, which rounds differently
        eps = np.finfo(float).eps
        for factor in (2.0**300, 2.0**600, 2.0**-600):
            s_f, z_f, _, ok_f = norm.support_many(factor * xs[ok])
            assert np.all(ok_f)
            assert np.all(np.abs(s_f / factor - want[0]) <= 4 * eps * want[0])
            assert np.abs(z_f - want[1]).max() <= 4 * eps

    @pytest.mark.parametrize("norm", [A2, QUARTIC_NORMS[2.0], A3], ids=lambda n: n.name)
    def test_zero_nan_huge_and_tiny_directions(self, norm):
        with pytest.raises(NormError):
            norm.support_many(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        xs = np.array([[0.3, 0.1, 0.9], [np.nan, 0.0, 1.0], [0.0, np.nan, np.nan], [1.0, 0.0, 0.0]])
        s, z, _, ok, jets = norm.support_many(xs, return_jets=True)
        assert ok.tolist() == [True, False, False, True]
        want = norm.support_many(xs[ok], return_jets=True)
        assert np.array_equal(s[ok], want[0]) and np.array_equal(z[ok], want[1])
        assert np.array_equal(jets[:, ok], want[4])
        # fourth powers of these overflow (to a support of 0 marked converged
        # at 2^300, to NaN at 2^600) and underflow; the closed form scales
        # each row by its largest entry, here by a power of two, exactly
        xs = xs[ok]
        for factor in (2.0**300, 2.0**600, 2.0**-600):
            s_f, z_f, _, ok_f = norm.support_many(factor * xs)
            assert np.all(ok_f)
            assert np.array_equal(s_f, factor * want[0]) and np.array_equal(z_f, want[1])


# -- the closed-form metric at the maximizers --------------------------------


def rotated_quadric() -> QuadraticNorm:
    """sqrt(z^T M z), M = R diag(1, 1/2, 2) R^T with R a turn about (1, 1, 1)."""
    axis = np.ones(3) / np.sqrt(3.0)
    k = np.cross(np.eye(3), axis)
    rot = np.eye(3) + np.sin(0.8) * k + (1.0 - np.cos(0.8)) * k @ k
    return QuadraticNorm(rot @ np.diag([1.0, 0.5, 2.0]) @ rot.T, name="rotated")


METRIC_NORMS = {
    "sphere": SPHERE, "ellipsoid": ELLIPSOID,
    "ellipsoid_flat": make_norm("ellipsoid", [0.3, 2.0, 1.1]), "rotated": rotated_quadric(),
}
# the gauges whose metric reaches the geometry only through frame_geometry
FRAME_NORMS = {"quartic_a2": A2, "quartic_a2_prime": QUARTIC_NORMS[2.0], "quartic_a3": A3}


class TestClosedFormMetric:
    @given(kind=st.sampled_from(sorted(METRIC_NORMS)),
           angles=st.lists(DIRECTION, min_size=1, max_size=16),
           length=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_metric_is_the_jets_metric_at_the_maximizers(self, kind, angles, length, seed):
        norm = METRIC_NORMS[kind]
        xs = length * np.array([direction(a, 3) for a in angles])
        s, z, ok, metric, jets = norm.dual_metric(xs)
        assert jets is None and np.all(ok)
        s_ref, z_ref, _, _ = norm.support_many(xs)
        assert np.array_equal(s, s_ref) and np.array_equal(z, z_ref)
        want = metric_components(norm.gauge_jets(z), 3)
        scale = np.abs(want).max(axis=0)
        assert metric.shape == want.shape
        assert np.all(np.abs(metric - want) <= 1e-13 * scale)
        t = np.random.default_rng(seed).standard_normal((3, len(xs)))
        got = norm.metric_times(metric, t)
        product = np.einsum("nij,jn->in", triangle_matrices(metric, 3), t)
        assert np.all(np.abs(got - product) <= 1e-15 * scale * np.abs(t).sum(axis=0))

    @given(kind=st.sampled_from(sorted(FRAME_NORMS)), seed=st.integers(0, 2**32 - 1),
           slope=st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_frame_geometry_is_the_jets_metric_on_the_tangents(self, kind, seed, slope):
        norm = FRAME_NORMS[kind]
        grid = HalfSphereGrid(2, 8, 16)
        frame = np.stack((grid.frame_u, grid.frame_e1, grid.frame_e2))
        rng = np.random.default_rng(seed)
        e_f = rng.standard_normal(3)
        rho = rng.uniform(0.5, 2.0, frame.shape[2])
        f1, f2 = rng.uniform(-slope, slope, (2, frame.shape[2]))
        big_n = frame[0] - f1 * frame[1] - f2 * frame[2]
        v = np.linalg.norm(big_n, axis=0)
        f_val, fv, pairing, ghat, known = norm.frame_geometry(
            rho, f1, f2, v, norm.frame_rows(frame, e_f))
        assert known == {}
        s, xi, _, _ = norm.support_many((big_n / v).T)
        assert np.all(np.abs(f_val - s) <= 1e-13 * s)
        assert np.all(np.abs(fv - v * s) <= 1e-13 * v * s)
        assert np.all(np.abs(pairing - e_f @ big_n / (v * s)) <= 1e-13 * np.linalg.norm(e_f) / s)
        # ghat = T G T^T with G = metric_components(gauge_jets(xi)), T_i = rho (f_i u + e_i)
        g = triangle_matrices(metric_components(norm.gauge_jets(xi), 3), 3)
        t = rho * np.stack((f1 * frame[0] + frame[1], f2 * frame[0] + frame[2]))
        want = np.einsum("ain,nij,bjn->abn", t, g, t)
        scale = want[0, 0] + want[1, 1]
        for got, (a, b) in zip(ghat, ((0, 0), (0, 1), (1, 1))):
            assert np.all(np.abs(got - want[a, b]) <= 1e-13 * scale)

    def test_quadric_metric_is_m_in_every_dimension(self):
        for norm in (make_norm("ellipsoid", [1.0, 2.0, 0.5, 3.0], dim=4), rotated_quadric()):
            d = norm.d
            xs = np.random.default_rng(d).standard_normal((5, d))
            metric = norm.dual_metric(xs)[3]
            assert metric.shape == (d * (d + 1) // 2, 5)
            assert np.array_equal(triangle_matrices(metric, d), np.broadcast_to(norm.m, (5, d, d)))

    @pytest.mark.parametrize("kind", ["custom", "quartic_a3"])
    def test_generic_metric_reads_the_solve_jets(self, kind):
        norm = SOLVE_NORMS[kind]
        xs = np.random.default_rng(7).standard_normal((12, 3))
        s, z, ok, metric, jets = norm.dual_metric(xs)
        want = norm.support_many(xs, return_jets=True)
        for got, ref in zip((s, z, ok, jets), (want[0], want[1], want[3], want[4])):
            assert np.array_equal(got, ref)
        assert np.array_equal(metric, metric_components(jets, 3))

"""Time stepping, boundary solve, monitors, and failure paths."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow.flow import (
    STABILIZED_C,
    FlowConfig,
    FlowError,
    ImplicitDiffusion,
    TRACE_COLUMNS,
    boundary_enforce,
    cfl_dt,
    initial_surface,
    perturbation_field,
    polar_filter,
    rate_checks,
    run,
    stabilized_diffusion,
    step,
    time_step,
)
from capflow.checks import af_slacks_n3, static_cap_bundle
from capflow.norms import (
    QUARTIC_A2_TEXT,
    Norm,
    QuadraticNorm,
    QuarticGaugeNorm,
    ShiftedGaugeNorm,
    make_norm,
)
from capflow.surface import GraphSurface, HalfSphereGrid, enclosed_volume, geometry
from capflow.wulff import CapillaryWulffShape, anchor_vector

SPHERE = make_norm("sphere")
A2 = make_norm("quartic_a2")


class TestConfig:
    def test_sigma_range(self):
        with pytest.raises(FlowError):
            FlowConfig(norm=SPHERE, omega0=0.0, cfl_sigma=1.5)

    def test_grid_minimum(self):
        with pytest.raises(FlowError):
            FlowConfig(norm=SPHERE, omega0=0.0, n_beta=8)

    def test_unknown_initial(self):
        with pytest.raises(FlowError):
            cfg = FlowConfig(norm=SPHERE, omega0=0.0, initial="vortex")
            initial_surface(cfg, anchor_vector(SPHERE, 0.0))


class TestPerturbation:
    def test_normalized_and_seeded(self):
        grid = HalfSphereGrid(2, 32, 64)
        p1 = perturbation_field(grid, 0.1, 42)
        p2 = perturbation_field(grid, 0.1, 42)
        assert np.array_equal(p1, p2)
        assert np.abs(p1 - 1.0).max() == pytest.approx(0.1, abs=1e-12)

    def test_vanishes_at_rim(self):
        grid = HalfSphereGrid(2, 32, 64)
        p = perturbation_field(grid, 0.1, 1)
        # cos^2 envelope: the boundary ring is exactly unperturbed
        assert np.abs(p[-1] - 1.0).max() < 1e-14

    def test_different_seed_differs(self):
        grid = HalfSphereGrid(2, 32, 64)
        assert not np.array_equal(
            perturbation_field(grid, 0.1, 1), perturbation_field(grid, 0.1, 2)
        )

    def test_n3_field_is_normalized_and_flat_at_the_rim(self):
        grid = HalfSphereGrid(3, 16, 32)
        p = perturbation_field(grid, 0.03, 5)
        assert p.shape == (16, 32, 32)
        assert np.abs(p - 1.0).max() == pytest.approx(0.03, abs=1e-15)
        # cos^2 envelope: O(dbeta^2) on the last cell ring
        assert np.abs(p[-1] - 1.0).max() < 0.01 * 0.03

    def test_n3_ratio_chain_has_a_member_off_the_equality_case(self):
        # the scaled caps give 0 by homogeneity; the perturbed cap does not
        slacks = af_slacks_n3()
        assert len(slacks) == 6
        assert max(abs(v) for v in slacks[:4]) < 1e-12
        assert min(slacks[4:]) > 1e-5


class TestBoundarySolve:
    def test_exact_cap_is_fixed_point(self):
        grid = HalfSphereGrid(2, 32, 64)
        shape = CapillaryWulffShape(A2, 1.0, -0.3)
        surf = GraphSurface.from_wulff(grid, shape)
        ghost_before = surf.phi[grid.n_beta + 1].copy()
        res = boundary_enforce(surf, A2, -0.3)
        assert res <= 1e-8
        # sampled ghost row is already second-order consistent
        assert np.abs(surf.phi[grid.n_beta + 1] - ghost_before).max() < 1e-4

    def test_neumann_mirror_for_zero_omega(self):
        grid = HalfSphereGrid(2, 32, 64)
        shape = CapillaryWulffShape(SPHERE, 1.0, 0.0)
        surf = GraphSurface.from_wulff(grid, shape)
        surf.phi[: grid.n_beta + 1] += 0.05 * np.cos(grid.lambdas)[None, :]
        boundary_enforce(surf, SPHERE, 0.0)
        # free boundary: ghost equals the inner neighbour
        assert np.allclose(
            surf.phi[grid.n_beta + 1], surf.phi[grid.n_beta - 1], atol=1e-9
        )


CLOSURE_NORMS = {
    "quartic_a2_prime": make_norm("quartic_a2_prime"),
    "ellipsoid": make_norm("ellipsoid", [4.0, 1.0, 2.0]),
    "quartic_a3": make_norm("quartic_a3", [0.3]),
    "custom": make_norm("custom", f0_expr="(x^4+y^4+z^4+(x^2+y^2+z^2)^2+x^2*y^2)^(1/4)"),
}


class TestBoundaryClosure:
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(CLOSURE_NORMS)),
           omega0=st.floats(-0.5, 0.5), amp=st.floats(0.0, 0.2),
           grid_size=st.sampled_from([(16, 32), (24, 48)]), warm=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_contact_residual_through_independent_dual_solve(
            self, seed, kind, omega0, amp, grid_size, warm):
        norm = CLOSURE_NORMS[kind]
        grid = HalfSphereGrid(2, *grid_size)
        nb, nl = grid.n_beta, grid.n_lambda
        surf = GraphSurface.from_wulff(grid, CapillaryWulffShape(norm, 1.0, omega0))
        # a warm start from the unperturbed cap, as step takes it from its bundle
        z0 = geometry(surf, norm, omega0).maximizers[-nl:] if warm else None
        # low harmonics m = 0..3 on the last three rows, ghost row included
        coef = np.random.default_rng(seed).uniform(-amp, amp, (3, 4, 2))
        m = np.arange(4)[:, None] * grid.lambdas
        surf.phi[nb - 1 :] += (coef[..., :1] * np.cos(m) + coef[..., 1:] * np.sin(m)).sum(1)
        res = boundary_enforce(surf, norm, omega0, tol=1e-10, z0=z0)
        assert res <= 1e-10
        # the rim normals of the closed surface, through geometry's stencils
        rim = geometry(surf, norm, omega0).nu[-nl:]
        _, z, _, ok = norm.support_many(rim, tol=1e-12)
        assert np.all(ok)
        assert np.abs(z[:, 2] + omega0).max() <= 1e-10

    def test_outer_half_of_the_slice_raises(self):
        # a warm start on the far side of the slice finds the point whose
        # gauge gradient opposes the rim direction; the quartic_a2 gauge given
        # as an expression, since quartic_a2's own closure is closed-form
        norm = make_norm("custom", f0_expr=QUARTIC_A2_TEXT)
        grid = HalfSphereGrid(2, 16, 32)
        surf = GraphSurface.from_wulff(grid, CapillaryWulffShape(norm, 1.0, -0.3))
        z0 = -geometry(surf, norm, -0.3).maximizers[-grid.n_lambda:]
        with pytest.raises(FlowError, match="rim normal"):
            boundary_enforce(surf, norm, -0.3, z0=z0)


def rotated_quadric() -> QuadraticNorm:
    """sqrt(z^T M z) for M = R diag(1, 1/2, 2) R^T, R a turn by 0.5 about
    (1, 1, 0)/sqrt(2): its column m = M[:2, 2] is not 0."""
    axis = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    k = np.cross(np.eye(3), axis)
    rot = np.eye(3) + np.sin(0.5) * k + (1.0 - np.cos(0.5)) * k @ k
    return QuadraticNorm(rot @ np.diag([1.0, 0.5, 2.0]) @ rot.T, name="rotated")


QUADRICS = {"sphere": SPHERE, "rotated": rotated_quadric()}


class NewtonClosure(QuadraticNorm):
    """A quadric gauge whose rim closure is the generic 2x2 Newton."""

    slice_maximizers = Norm.slice_maximizers


class TestQuadricClosure:
    @given(seed=st.integers(0, 2**32 - 1), omega0=st.floats(-0.5, 0.5),
           amp=st.floats(0.0, 0.2), grid_size=st.sampled_from([(16, 32), (24, 48)]),
           warm=st.booleans(), kind=st.sampled_from(["sphere", "ellipsoid", "rotated"]),
           axes=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_the_newton(self, seed, omega0, amp, grid_size, warm,
                                            kind, axes):
        norm = make_norm("ellipsoid", axes) if kind == "ellipsoid" else QUADRICS[kind]
        assert norm.m[:2, 2].any() == (kind == "rotated")  # only it tests omega0 A^-1 m
        newton = NewtonClosure(norm.m)
        grid = HalfSphereGrid(2, *grid_size)
        nb, nl = grid.n_beta, grid.n_lambda
        surf = GraphSurface.from_wulff(grid, CapillaryWulffShape(norm, 1.0, omega0))
        z0 = geometry(surf, norm, omega0).maximizers[-nl:] if warm else None
        # low harmonics m = 0..3 on the last three rows, ghost row included
        coef = np.random.default_rng(seed).uniform(-amp, amp, (3, 4, 2))
        m = np.arange(4)[:, None] * grid.lambdas
        surf.phi[nb - 1 :] += (coef[..., :1] * np.cos(m) + coef[..., 1:] * np.sin(m)).sum(1)
        closed = surf.copy()
        res = boundary_enforce(closed, norm, omega0, tol=1e-10, z0=z0)
        boundary_enforce(surf, newton, omega0, tol=1e-10, z0=z0)
        assert np.abs(closed.phi[nb + 1] - surf.phi[nb + 1]).max() <= 1e-14
        assert res <= 1e-15

    @pytest.mark.parametrize("closure", ["closed", "newton"])
    def test_step_reads_the_lazy_maximizers_only_for_the_newton(self, closure):
        norm = SPHERE if closure == "closed" else NewtonClosure(SPHERE.m)
        anchor = anchor_vector(norm, -0.5)
        cfg = FlowConfig(norm=norm, omega0=-0.5, n_beta=16, n_lambda=32, initial="cap")
        surf = initial_surface(cfg, anchor)
        bundle = geometry(surf, norm, -0.5, anchor)
        _, nxt = step(surf, norm, -0.5, anchor, bundle, 1e-4, ImplicitDiffusion(surf.grid, 0.0))
        # the generic closure starts from the rim maximizers; nothing else reads them
        lazy = ("nu", "nu_F")
        assert all((name in vars(bundle)) == (closure == "newton") for name in lazy)
        assert not any(name in vars(nxt) for name in lazy)
        assert nxt.projections is bundle.projections

    @pytest.mark.parametrize("norm, omega0", [
        (SPHERE, 1.0), (SPHERE, -1.0), (make_norm("ellipsoid", [1.0, 1.0, 0.25]), 0.6),
        # the quartic slice is empty for |omega0| >= 1
        (A2, 1.0), (A2, -1.5), (A2, np.nan)])
    def test_empty_slice_raises(self, norm, omega0):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(FlowError, match="empty boundary slice"):
            norm.slice_maximizers(h, omega0)


def count_calls(monkeypatch, cls, name):
    """A list that grows by one on each call of cls's own method name."""
    calls, original = [], cls.__dict__[name]

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


# every method that solves the dual problem, each on the class defining it
DUAL_SOLVES = [(cls, name) for cls in (Norm, QuadraticNorm, QuarticGaugeNorm, ShiftedGaugeNorm)
               for name in ("support_many", "dual_metric") if name in cls.__dict__]
DUAL_SOLVES.append((QuarticGaugeNorm, "_support_components"))

RIM_NORMS = {**CLOSURE_NORMS, "sphere": SPHERE, "quartic_a2": A2}


class ShortClosure(QuadraticNorm):
    """A quadric whose rim closure stops 1e-6 along the slice short of its
    maximizers, with the value and gradient rows of the point it stops at:
    there the horizontal gradient turns away from h."""

    def slice_maximizers(self, h, omega0, z0=None):
        z, c = super().slice_maximizers(h, omega0, z0)
        tangent = np.stack((-c[2], c[1], 0.0 * c[1])) / np.hypot(c[1], c[2])
        z = z + 1e-6 * tangent.T
        return z, self.gauge_jets(z)[:4]


class TestOneRimSolve:
    @pytest.mark.parametrize("kind", sorted(RIM_NORMS))
    def test_boundary_enforce_makes_no_dual_solve(self, kind, monkeypatch):
        norm = RIM_NORMS[kind]
        grid = HalfSphereGrid(2, 16, 32)
        surf = GraphSurface.from_wulff(grid, CapillaryWulffShape(norm, 1.0, -0.3))
        z0 = geometry(surf, norm, -0.3).maximizers[-grid.n_lambda:]
        surf.phi[grid.n_beta - 1:] += 0.05 * np.cos(grid.lambdas)
        calls = [count_calls(monkeypatch, cls, name) for cls, name in DUAL_SOLVES]
        assert boundary_enforce(surf, norm, -0.3, z0=z0) <= 1e-8
        assert not any(calls)

    @pytest.mark.parametrize("kind, cls, name, grid_size, solves", [
        ("sphere", QuadraticNorm, "support_many", (24, 48), 0),
        # the geometry's meridian form and the rim's slice ellipse solve nothing
        ("quartic_a2", QuarticGaugeNorm, "_support_components", (64, 128), 0),
        # nor do their shifted forms: no generic support solve or rim closure
        ("quartic_a3", Norm, "support_many", (24, 48), 0),
        ("quartic_a3", ShiftedGaugeNorm, "support_many", (24, 48), 0),
        ("quartic_a3", Norm, "slice_maximizers", (24, 48), 0),
        # the geometry's warm Newton; the rim closure is its own 2x2 Newton
        ("custom", Norm, "support_many", (16, 32), 1)])
    def test_a_warm_step_solves_the_dual_once_at_most(self, kind, cls, name, grid_size,
                                                      solves, monkeypatch):
        norm = RIM_NORMS[kind]
        cfg = FlowConfig(norm=norm, omega0=-0.3, n_beta=grid_size[0], n_lambda=grid_size[1])
        anchor = anchor_vector(norm, -0.3)
        surf = initial_surface(cfg, anchor)
        bundle = geometry(surf, norm, -0.3, anchor)
        dt = time_step(surf.grid, bundle.diffusion_max, cfg.cfl_sigma)
        diffusion = stabilized_diffusion(surf.grid, cfg.cfl_sigma)
        surf, bundle = step(surf, norm, -0.3, anchor, bundle, dt, diffusion)
        calls = count_calls(monkeypatch, cls, name)
        step(surf, norm, -0.3, anchor, bundle, dt, diffusion)
        assert len(calls) == solves

    def test_a_closure_stopped_short_raises(self):
        grid = HalfSphereGrid(2, 16, 32)
        surf = GraphSurface.from_wulff(grid, CapillaryWulffShape(SPHERE, 1.0, -0.5))
        assert boundary_enforce(surf.copy(), SPHERE, -0.5) <= 1e-15
        with pytest.raises(FlowError, match="boundary closure did not reach"):
            boundary_enforce(surf, ShortClosure(np.eye(3)), -0.5)


class TestStepping:
    def test_static_cap_drift_bounded(self):
        omega0 = -0.3
        anchor = anchor_vector(A2, omega0)
        cfg = FlowConfig(norm=A2, omega0=omega0, n_beta=32, n_lambda=64,
                         initial="cap")
        surf = initial_surface(cfg, anchor)
        bundle = geometry(surf, A2, omega0, anchor)
        dt = time_step(surf.grid, bundle.diffusion_max, cfg.cfl_sigma)
        diffusion = stabilized_diffusion(surf.grid, cfg.cfl_sigma)
        rings = slice(1, cfg.n_beta + 1)
        phi0 = surf.phi[rings].copy()
        new, _ = step(surf, A2, omega0, anchor, bundle, dt, diffusion)
        assert np.abs(new.phi[rings] - phi0).max() <= dt * 5e-3

    def test_cfl_dt_positive_and_quadratic(self):
        grid32 = HalfSphereGrid(2, 32, 64)
        grid64 = HalfSphereGrid(2, 64, 128)
        dt32 = cfl_dt(grid32, 1.0, 0.4)
        dt64 = cfl_dt(grid64, 1.0, 0.4)
        assert dt32 > 0 and dt64 == pytest.approx(dt32 / 4)

    def test_polar_filter_keeps_low_modes(self):
        grid = HalfSphereGrid(2, 32, 64)
        rhs = np.cos(grid.lambdas)[None, :] * np.ones((32, 1))
        filtered = polar_filter(rhs, grid)
        assert np.allclose(filtered, rhs, atol=1e-13)

    def test_polar_filter_drops_high_modes_near_pole(self):
        grid = HalfSphereGrid(2, 32, 64)
        rhs = np.cos(20 * grid.lambdas)[None, :] * np.ones((32, 1))
        filtered = polar_filter(rhs, grid)
        assert np.abs(filtered[0]).max() < 1e-13
        assert np.allclose(filtered[-1], rhs[-1], atol=1e-13)


def polar_filter_by_rows(rhs, grid):
    """The filter as a loop over the cut-off rings, one mode mask per ring."""
    sin_b = np.sin(grid.betas[1:])
    cutoff_rows = np.nonzero(sin_b * grid.dlam < grid.dbeta)[0]
    spec = np.fft.rfft(rhs[cutoff_rows], axis=1)
    m = np.arange(spec.shape[1])
    for idx, i in enumerate(cutoff_rows):
        spec[idx, m > max(2, int(np.pi * sin_b[i] / grid.dbeta))] = 0.0
    out = rhs.copy()
    out[cutoff_rows] = np.fft.irfft(spec, grid.n_lambda, axis=1)
    return out


@given(seed=st.integers(0, 2**32 - 1), nb=st.sampled_from([16, 24, 64]))
@settings(max_examples=20, deadline=None)
def test_polar_filter_equals_the_row_loop(seed, nb):
    grid = HalfSphereGrid(2, nb, 2 * nb)
    rhs = np.random.default_rng(seed).standard_normal((nb, 2 * nb))
    assert np.array_equal(polar_filter(rhs, grid), polar_filter_by_rows(rhs, grid))


def dense_laplacian(grid: HalfSphereGrid) -> np.ndarray:
    """5-point round Laplacian in real space: the pole node, then rings 1..n_beta."""
    nb, nl = grid.n_beta, grid.n_lambda
    db2, dl2 = grid.dbeta**2, grid.dlam**2
    size = 1 + nb * nl
    lap = np.zeros((size, size))

    def node(i, j):
        if i == 0:
            return 0
        if i == nb + 1:
            i = nb - 1  # reflective rim closure
        return 1 + (i - 1) * nl + j % nl

    lap[0, 0] = -4.0 / db2
    lap[0, 1 : 1 + nl] += 4.0 / (db2 * nl)  # ring mean of row 1
    for i in range(1, nb + 1):
        beta = grid.betas[i]
        cot, s2 = np.cos(beta) / np.sin(beta), np.sin(beta) ** 2
        for j in range(nl):
            k = node(i, j)
            lap[k, node(i + 1, j)] += 1.0 / db2 + cot / (2 * grid.dbeta)
            lap[k, node(i - 1, j)] += 1.0 / db2 - cot / (2 * grid.dbeta)
            lap[k, node(i, j + 1)] += 1.0 / (dl2 * s2)
            lap[k, node(i, j - 1)] += 1.0 / (dl2 * s2)
            lap[k, k] -= 2.0 / db2 + 2.0 / (dl2 * s2)
    return lap


class TestImplicitDiffusion:
    GRID = HalfSphereGrid(2, 16, 32)
    LAPLACIAN = dense_laplacian(GRID)
    BENCH_GRID = HalfSphereGrid(2, 24, 48)  # the sphere-converge benchmark grid
    BENCH_LAPLACIAN = dense_laplacian(BENCH_GRID)

    def increment(self, seed, grid=GRID):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, (grid.n_beta + 1, grid.n_lambda))

    def check_dense_solve(self, grid, laplacian, seed, c):
        delta = self.increment(seed, grid)
        delta[0] = delta[0, 0]  # the pole is one node
        x = np.linalg.solve(np.eye(len(laplacian)) - c * laplacian,
                            np.concatenate(([delta[0, 0]], delta[1:].ravel())))
        got = ImplicitDiffusion(grid, c).solve(delta)
        assert np.abs(got[0] - x[0]).max() <= 1e-12
        assert np.abs(got[1:].ravel() - x[1:]).max() <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(1e-6, 0.05))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_real_space_solve(self, seed, c):
        self.check_dense_solve(self.GRID, self.LAPLACIAN, seed, c)

    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(1e-6, 0.05))
    @settings(max_examples=15, deadline=None)
    def test_matches_dense_real_space_solve_on_the_benchmark_grid(self, seed, c):
        self.check_dense_solve(self.BENCH_GRID, self.BENCH_LAPLACIAN, seed, c)

    def test_singular_inverse_is_a_flow_error(self):
        # elimination without pivoting needs (I - c L) to be an M-matrix: a
        # negative c, which can make a mode's matrix singular, is rejected,
        # and a coefficient that leaves a pivot non-finite fails the check
        with pytest.raises(FlowError, match="negative"):
            ImplicitDiffusion(self.GRID, -0.01)
        for c in (np.inf, np.nan, 1e308):
            with pytest.raises(FlowError, match="not finite"):
                ImplicitDiffusion(self.GRID, c)

    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_max_norm_never_increases(self, seed, c):
        delta = self.increment(seed) * np.exp(seed % 7 - 3)
        got = ImplicitDiffusion(self.GRID, c).solve(delta)
        assert np.abs(got).max() <= np.abs(delta).max() * (1.0 + 1e-12)

    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(1e-6, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_pole_row_has_no_azimuthal_modes(self, seed, c):
        got = ImplicitDiffusion(self.GRID, c).solve(self.increment(seed))
        assert np.abs(np.fft.rfft(got[0])[1:]).max() <= 1e-13

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_zero_coefficient_is_explicit(self, seed):
        delta = self.increment(seed)
        assert ImplicitDiffusion(self.GRID, 0.0).solve(delta) is delta


class TestStabilizedSolve:
    @given(a=st.floats(1e-3, 1e3), sigma=st.floats(0.05, 0.95),
           nb=st.sampled_from([16, 24, 64]))
    @settings(max_examples=50, deadline=None)
    def test_coefficient_does_not_depend_on_the_bound(self, a, sigma, nb):
        grid = HalfSphereGrid(2, nb, 2 * nb)
        c = sigma * STABILIZED_C * grid.dbeta / (2 * grid.n)
        assert time_step(grid, a, sigma) * a == pytest.approx(c, rel=1e-15)

    def test_factored_once_per_run(self, monkeypatch):
        built = []
        init = ImplicitDiffusion.__init__

        def spy(self, grid, c):
            built.append((grid, c))
            init(self, grid, c)

        monkeypatch.setattr(ImplicitDiffusion, "__init__", spy)
        cfg = FlowConfig(norm=SPHERE, omega0=-0.5, n_beta=16, n_lambda=32, record_every=50)
        trace, _ = run(cfg)
        assert trace.converged and trace.steps > 40
        assert len(built) == 1
        grid, c = built[0]
        assert c == pytest.approx(cfg.cfl_sigma * STABILIZED_C * grid.dbeta / (2 * grid.n),
                                  rel=1e-15)


class TestRun:
    def test_exact_cap_converges_immediately(self):
        cfg = FlowConfig(norm=SPHERE, omega0=-0.5, n_beta=32, n_lambda=64,
                         initial="cap")
        trace, _ = run(cfg)
        assert trace.converged and trace.steps == 0

    def test_blow_up_flagged(self):
        cfg = FlowConfig(norm=SPHERE, omega0=0.0, n_beta=32, n_lambda=64,
                         t_end=1.0, dt_override=0.5)
        trace, _ = run(cfg)
        assert trace.blow_up
        assert len(trace.records) >= 1

    def test_blow_up_is_caught_by_the_step_size_guard(self):
        # forward Euler at about 2000 times the explicit bound: the first step
        # moves phi by more than 1 while max |phi| stays under the |phi| > 20 guard
        cfg = FlowConfig(norm=SPHERE, omega0=0.0, n_beta=32, n_lambda=64,
                         t_end=1.0, dt_override=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trace, _ = run(cfg)
        assert trace.blow_up and trace.stop_reason.startswith("BlowUpError")

    def test_dt_override_above_explicit_bound_warns(self):
        cfg = FlowConfig(norm=SPHERE, omega0=0.0, n_beta=32, n_lambda=64,
                         t_end=1.0, dt_override=0.5)
        with pytest.warns(RuntimeWarning, match="explicit step bound"):
            run(cfg)
        cfg.dt_override, cfg.t_end = 1e-5, 3e-5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace, _ = run(cfg)
        assert trace.steps == 3 and trace.stop_reason == "t_end"

    def test_short_run_monitors(self):
        cfg = FlowConfig(norm=SPHERE, omega0=-0.5, n_beta=32, n_lambda=64,
                         t_end=0.05, record_every=50)
        trace, _ = run(cfg)
        v0 = trace.column("V0")
        assert abs(v0[-1] - v0[0]) / v0[0] < 1e-3
        assert trace.v1_increase <= 0.0
        assert trace.barrier_violation == 0.0
        t = trace.column("t")
        assert np.all(np.diff(t) > 0)
        for rec in trace.records:
            assert all(np.isfinite(v) for v in rec.values())

    @pytest.mark.parametrize("kind,omega0", [("sphere", -0.5), ("quartic_a2", -0.3)])
    def test_r0_matches_the_unit_cap(self, kind, omega0):
        norm = make_norm(kind)
        trace, surface = run(FlowConfig(norm=norm, omega0=omega0, n_beta=16, n_lambda=32,
                                        t_end=0.005))
        unit = static_cap_bundle(norm, omega0, 16, 32)
        r0 = (trace.records[-1]["V0"] / enclosed_volume(unit)) ** (1.0 / 3.0)
        ratio = np.exp(surface.phi[:17]) / np.exp(unit.surface.phi[:17])
        np.testing.assert_allclose(trace.r0, r0, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(trace.radial_deviation, np.abs(ratio - r0).max(),
                                   rtol=1e-12, atol=0.0)

    def test_unit_cap_radii_are_built_once(self, monkeypatch):
        # the start surface and the unit cap share one set of lattice ray roots
        sizes = []
        radial_many = CapillaryWulffShape.radial_many

        def counted(self, directions):
            sizes.append(np.asarray(directions).size // 3)
            return radial_many(self, directions)

        monkeypatch.setattr(CapillaryWulffShape, "radial_many", counted)
        run(FlowConfig(norm=A2, omega0=-0.3, n_beta=16, n_lambda=32, t_end=1e-3))
        assert sizes.count(17 * 32) == 1

    def test_trace_csv_schema(self, tmp_path):
        cfg = FlowConfig(norm=SPHERE, omega0=0.0, n_beta=32, n_lambda=64,
                         t_end=0.01, record_every=20)
        trace, _ = run(cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == len(trace.records) + 1
        assert all(len(ln.split(",")) == len(TRACE_COLUMNS) for ln in lines[1:])

    def test_a_short_final_interval_is_differenced_a_stride_back(self):
        from capflow.flow import FlowTrace

        def trace(bump):
            # V1 and V2 linear in t at the rates recorded; the run stopped 4
            # steps after its last 25-step record, and bump stands for rounding
            tr = FlowTrace()
            for k in (0, 25, 50, 75, 79):
                t = 1e-3 * k
                tr.records.append(dict(t=t, steps=k, V1_boundary=2.0 - 0.5 * t, rate_V1=-0.5,
                                       V2_interior=1.0 + 0.25 * t, rate_V2=0.25))
            tr.records[-1]["V1_boundary"] += bump
            tr.records[-1]["V2_interior"] -= bump
            return tr

        exact, bumped = rate_checks(trace(0.0)), rate_checks(trace(1e-12))
        for key in ("abs_k0", "abs_k1"):
            assert exact[key].max() <= 1e-12
            # only the final record's rate reads it, over its 29 steps back
            assert np.array_equal(bumped[key][:-1], exact[key][:-1])
            assert bumped[key][-1] - exact[key][-1] <= 1.01e-12 / 0.029

    def test_rate_checks_need_three_records(self):
        from capflow.flow import FlowTrace

        errs = rate_checks(FlowTrace())
        assert np.all(errs["err_k0"] == 0.0)

"""Minkowski norms, dual support solves, and the derived tensors.

A norm object exposes the gauge function together with its derivatives up to
third order through gauge_jets, as one component-major array in the layout
of capflow.expr (value, gradient, Hessian triangle and, at order 3, the
third-derivative entries i <= j <= k; one row per entry, one column per
point).  Jets pass between modules in that form only; the metric G and the
tensor Q are expanded to dense (N, d, d) and (N, d, d, d) arrays only where
they are read.  From the jets it derives the support function of the unit
ball and its maximizers (the Cahn-Hoffman points), and the rim maximizers on
a horizontal slice of the ball; the squared-gauge Hessian metric; its
third-derivative tensor; and the curvature matrix of the support function.
The builtin gauges give the support in closed form (quadric and quartic
gauges directly, shifted gauges from their base), and the quadric and quartic
gauges the rim maximizers and the metric at the maximizers too; a custom
gauge takes the generic Newton solves, the support one eliminated through the
metric and run on the component arrays, and a shifted gauge the generic rim
closure and the metric from its jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CapflowError, expr as expr_mod
from .expr import (
    EvalDomainError,
    Expression,
    jet_gradients,
    jet_rows,
    layout,
    sym3,
    triangle_matrices,
    triple_tensors,
)

DUAL_TOL = 1e-12
DUAL_MAX_ITER = 60
# the generic rim closure's Newton stops once no rim node's update exceeds
# CLOSURE_TOL, and fails after CLOSURE_MAX_ITER iterations
CLOSURE_TOL = 1e-13
CLOSURE_MAX_ITER = 50
# a custom gauge must satisfy |gauge(t x) - t gauge(x)| <= HOMOGENEITY_TOL
# times its largest value on the sampled unit directions and +-E_1 ... +-E_d
HOMOGENEITY_TOL = 1e-10
# and its metric G = gauge*Hess + Dgauge Dgauge^T must have every eigenvalue
# above ELLIPTICITY_TOL times the largest one on those directions
ELLIPTICITY_TOL = 1e-10


class NormError(ValueError, CapflowError):
    """Base class for norm failures."""


class DualSolveError(NormError):
    """The support solve failed to converge."""


class FlowError(RuntimeError, CapflowError):
    """A flow failure or an invalid flow setting.  Defined here because the
    rim closure (slice_maximizers) raises it; capflow.flow re-exports it."""


@dataclass
class DualSolveResult:
    """Outcome of a support evaluation at one direction."""

    value: float
    maximizer: np.ndarray
    iterations: int
    converged: bool


def fibonacci_sphere(count: int) -> np.ndarray:
    """Quasi-uniform sample of the unit 2-sphere, shape (count, 3)."""
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


def random_directions(count: int, d: int, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_directions(count: int, d: int, seed: int = 42) -> np.ndarray:
    """Unit directions in R^d: fibonacci_sphere for d = 3, else seeded random."""
    return fibonacci_sphere(count) if d == 3 else random_directions(count, d, seed)


# -- metrics on component-major jets ------------------------------------------
#
# Symmetric d x d metrics are stored like the Hessian of a jet: their upper
# triangle in the order of expr._pairs(d), one row per entry.


def metric_components(comps: np.ndarray, d: int) -> np.ndarray:
    """Upper triangle of G = gauge*Hess + Dgauge Dgauge^T, (d(d+1)/2, N)."""
    t = layout(d)
    grad = comps[1 : d + 1]
    return comps[0] * comps[t.hess] + grad[t.pi] * grad[t.pj]


def solve_components(g: np.ndarray, rhs: np.ndarray, name: str = "norm") -> np.ndarray:
    """Solve G x = rhs for symmetric metrics given by their upper triangles.

    g has shape (d(d+1)/2, N); rhs (d, N) or (d, k, N), and x has its shape.
    d = 3 uses the closed-form adjugate; other sizes a batched LAPACK solve.
    A non-finite or singular G raises DualSolveError.
    """
    if not np.all(np.isfinite(g)):
        raise DualSolveError(f"non-finite metric in the dual system for {name}")
    d, n = rhs.shape[0], g.shape[1]
    if d != 3:
        g_mat = triangle_matrices(g, d)
        cols = rhs.reshape(d, -1, n).transpose(2, 0, 1)
        try:
            x = np.linalg.solve(g_mat, cols)
        except np.linalg.LinAlgError as exc:
            raise DualSolveError(f"singular dual system for {name}") from exc
        return x.transpose(1, 2, 0).reshape(rhs.shape)
    adj, det = adjugate3(g)
    if np.any(det == 0.0):
        raise DualSolveError(f"singular dual system for {name}")
    x = np.empty(rhs.shape)
    for k, (p, q, r) in enumerate(((0, 1, 2), (1, 3, 4), (2, 4, 5))):
        x[k] = (adj[p] * rhs[0] + adj[q] * rhs[1] + adj[r] * rhs[2]) / det
    return x


def adjugate3(g: np.ndarray):
    """Adjugate (upper triangle, component order) and determinant of the
    symmetric 3x3 metrics given by their upper triangles g (6, N)."""
    g00, g01, g02, g11, g12, g22 = g
    adj = (g11 * g22 - g12 * g12, g02 * g12 - g01 * g22, g01 * g12 - g02 * g11,
           g00 * g22 - g02 * g02, g01 * g02 - g00 * g12, g00 * g11 - g01 * g01)
    return adj, g00 * adj[0] + g01 * adj[1] + g02 * adj[2]


class Norm:
    """A smooth elliptic gauge on R^d with derivative oracles.

    Subclasses implement gauge_jets(pts, order), which takes points (N, d)
    and returns their jets of order 2 or 3 as one component-major array
    (expr.jet_rows(d, order), N); its order-2 rows are the leading rows of
    the order-3 array.  They may give support_many and slice_maximizers in
    closed form.  Everything else (metric, third-order tensor, curvature
    matrix of the support function) is generic.
    """

    def __init__(self, d: int, name: str = "norm"):
        self.d = d
        self.name = name

    # -- gauge evaluation -------------------------------------------------

    def gauge_jets(self, pts: np.ndarray, order: int = 2) -> np.ndarray:
        raise NotImplementedError

    def f0_many(self, pts: np.ndarray) -> np.ndarray:
        # a copy: a view of the value row would keep every jet row alive
        return self.gauge_jets(np.asarray(pts, dtype=float), order=2)[0].copy()

    def f0(self, x) -> float:
        """The gauge at one point, by homogeneity from x / max|x_i|, so that a
        tiny x (say omega0 E_up at |omega0| ~ 1e-170) does not square to 0."""
        x = np.asarray(x, dtype=float)
        scale = float(np.abs(x).max()) or 1.0
        return scale * float(self.f0_many((x / scale)[None, :])[0])

    # -- dual support -----------------------------------------------------

    def support_many(
        self,
        xs: np.ndarray,
        z0: np.ndarray | None = None,
        tol: float = DUAL_TOL,
        return_jets: bool = False,
        jets0: np.ndarray | None = None,
    ):
        """Support values and maximizers for a batch of directions xs (N, d).

        This is the generic solve, for custom gauges; every builtin gauge
        overrides it by a closed form.  It solves max <x,z> subject to
        gauge(z) = 1 by damped Newton on the stationarity system
        r_x = x - s*Dgauge(z) = 0, r_g = gauge(z) - 1 = 0.
        Euler's identities for the 1-homogeneous gauge (Hess z = 0 and
        <Dgauge, z> = gauge) hold at every iterate, so the bordered Newton
        system reduces to one solve against the metric
        G = gauge*Hess + Dgauge Dgauge^T:  G w = r_x, ds = <Dgauge, w>,
        dz = (gauge/s) w - (ds/s + r_g/gauge) z.  The loop runs on
        component-major arrays, (d, N) points and their order-2 jets, for
        every d, on all N rows at once: a row at tol or with a NaN residual
        takes a zero step and keeps its state bitwise, and only the rows above
        tol steer the line search or meet the metric check.  jets0, the
        order-2 jets at z0, spares the start-up evaluation.  Returns (values,
        maximizers (N, d), iterations, converged_mask) and, with return_jets,
        the order-2 jets at the maximizers as a fifth item.
        """
        xs = np.asarray(xs, dtype=float)
        d = xs.shape[1]
        norms_x = np.linalg.norm(xs, axis=1)
        if np.any(norms_x == 0.0):
            raise NormError("support direction must be nonzero")
        x = np.ascontiguousarray(xs.T)
        start = x if z0 is None else np.ascontiguousarray(np.asarray(z0, dtype=float).T)
        jets = self.gauge_jets(start.T) if jets0 is None else jets0
        # rescale the jets onto the unit level set by homogeneity instead of
        # re-evaluating: grad is 0-homogeneous, hess is (-1)-homogeneous
        c = jets[0]
        z = start / c
        jet = np.empty(jets.shape)
        jet[0] = 1.0
        jet[1 : d + 1] = jets[1 : d + 1]
        jet[d + 1 :] = jets[d + 1 :] * c
        s = (x * z).sum(axis=0)
        scale = np.maximum(1.0, norms_x)

        def residual_norm(xa, sa, jeta, scale_a):
            r = np.empty((d + 1, xa.shape[1]))
            r[:d] = xa - sa * jeta[1 : d + 1]
            r[d] = jeta[0] - 1.0
            return r, np.sqrt((r * r).sum(axis=0)) / scale_a

        r, rnorm = residual_norm(x, s, jet, scale)
        eye = np.eye(d)[layout(d).pi, layout(d).pj][:, None]
        iterations = 0
        for iterations in range(1, DUAL_MAX_ITER + 1):
            keep = ~(rnorm > tol)
            if keep.all():
                break
            # Newton step through G; the rows kept solve against I, step by 0
            ga, grad = jet[0], jet[1 : d + 1]
            g = metric_components(jet, d)
            np.copyto(g, eye, where=keep)
            w = solve_components(g, r[:d], self.name)
            ds = (grad * w).sum(axis=0)
            dz = (ga / s) * w - (ds / s + r[d] / ga) * z
            np.copyto(dz, 0.0, where=keep)
            step = 1.0
            for _ in range(30):
                z_try = z + step * dz
                s_try = s + step * ds
                with np.errstate(all="ignore"):
                    # a kept non-finite point is evaluated at a stand-in, as
                    # an expression gauge rejects it; copyto restores it below
                    jet_try = self.gauge_jets(np.where(keep & ~np.isfinite(z_try), 1.0, z_try).T)
                    r_try, rnorm_try = residual_norm(x, s_try, jet_try, scale)
                if np.all((np.isfinite(rnorm_try) & (rnorm_try <= rnorm)) | keep):
                    break
                step *= 0.5
            for kept, new in zip((z, s, r, rnorm, jet), (z_try, s_try, r_try, rnorm_try, jet_try)):
                np.copyto(new, kept, where=keep)
            z, s, r, rnorm, jet = z_try, s_try, r_try, rnorm_try, jet_try
        converged = rnorm <= max(tol, DUAL_TOL) * 10
        z = np.ascontiguousarray(z.T)
        if not return_jets:
            return s, z, iterations, converged
        return s, z, iterations, converged, jet

    def dual_metric(self, nu: np.ndarray, z0: np.ndarray | None = None,
                    tol: float = DUAL_TOL, jets0: np.ndarray | None = None):
        """Support values, maximizers (N, d), converged mask, the metric G at
        the maximizers as its upper triangle (d(d+1)/2, N), and the order-2
        jets there, for the directions nu (N, d); z0 and jets0 start the solve
        as in support_many.  This body reads G from the jets of the support
        solve; the quadric and quartic gauges override it by a closed form,
        which ignores z0, tol and jets0 and returns None for the jets."""
        s, z, _, ok, jets = self.support_many(nu, z0=z0, tol=tol, return_jets=True, jets0=jets0)
        return s, z, ok, metric_components(jets, self.d), jets

    def metric_times(self, metric: np.ndarray, t: np.ndarray) -> np.ndarray:
        """G t for the d = 3 metrics of dual_metric, metric (6, N) and t (3, N)."""
        g = metric
        return np.stack((g[0] * t[0] + g[1] * t[1] + g[2] * t[2],
                         g[1] * t[0] + g[3] * t[1] + g[4] * t[2],
                         g[2] * t[0] + g[4] * t[1] + g[5] * t[2]))

    def slice_maximizers(self, h: np.ndarray, omega0: float, z0: np.ndarray | None = None):
        """Rim maximizers on the unit ball's slice z_3 = -omega0 (d = 3).

        This is the generic closure, for custom and shifted gauges; the
        quadric and quartic gauges override it by a closed form.

        h (2, N) holds the horizontal parts of the rim directions (or the
        planar normals of the boundary slice), component-major.  The
        maximizer z of <h + t E_up, .> for the right t lies on the slice,
        where the horizontal gauge gradient is parallel to h.  A 2x2 Newton
        per node solves gauge(z) = 1 and h_1 d_2 gauge - h_2 d_1 gauge = 0 for
        (z_1, z_2), from z0 (N, 3) or from the slice points along h, and stops
        once its step, which it applies, is at most CLOSURE_TOL.  Returns z
        (N, 3) and the value and gradient rows (4, N) of the jets at z.
        """
        h1, h2 = h
        if z0 is None:
            from .wulff import ball_slice_points  # wulff imports this module
            h_len = np.hypot(h1, h2)
            z0 = ball_slice_points(self, omega0, np.stack([h1 / h_len, h2 / h_len, 0 * h1], 1))
        z = np.array(z0, dtype=float).T
        z[2] = -omega0
        # jets rows: value, gradient 0..2, Hessian 00 01 02 11 12 22
        c = self.gauge_jets(z.T)
        for _ in range(CLOSURE_MAX_ITER):
            r1, r2 = c[0] - 1.0, h1 * c[2] - h2 * c[1]
            j21, j22 = h1 * c[5] - h2 * c[4], h1 * c[7] - h2 * c[5]
            det = c[1] * j22 - c[2] * j21
            with np.errstate(divide="ignore", invalid="ignore"):
                dz = np.stack(((j22 * r1 - c[2] * r2) / det, (c[1] * r2 - j21 * r1) / det))
            if not np.isfinite(dz).all():
                raise FlowError("singular boundary closure system")
            z[:2] -= dz
            c = self.gauge_jets(z.T)
            if np.abs(dz).max() <= CLOSURE_TOL:
                return z.T, c[:4]
        raise FlowError(f"boundary closure did not converge in {CLOSURE_MAX_ITER} iterations")

    def support(self, x) -> DualSolveResult:
        """Support value and touching point for one direction."""
        xs = np.asarray(x, dtype=float)[None, :]
        s, z, iters, ok = self.support_many(xs)
        if not ok[0]:
            raise DualSolveError(
                f"support solve did not converge for {self.name} at {x}"
            )
        return DualSolveResult(float(s[0]), z[0], iters, bool(ok[0]))

    # -- derived tensors --------------------------------------------------

    def metric_G_many(self, xis: np.ndarray, jets: np.ndarray | None = None) -> np.ndarray:
        """Hessian of half the squared gauge, shape (N,d,d); jets, the jets at
        xis, spares their evaluation."""
        if jets is None:
            jets = self.gauge_jets(np.asarray(xis, dtype=float), order=2)
        return triangle_matrices(metric_components(jets, self.d), self.d)

    def tensor_Q_many(self, xis: np.ndarray, jets: np.ndarray | None = None) -> np.ndarray:
        """Third derivative of half the squared gauge, shape (N,d,d,d): the
        gauge times its third derivative plus the symmetrized Hessian times
        gradient.  Order-3 jets at xis spare their evaluation."""
        d, t = self.d, layout(self.d)
        if jets is None or len(jets) < jet_rows(d, 3):
            jets = self.gauge_jets(np.asarray(xis, dtype=float), order=3)
        q = jets[0] * jets[t.third] + sym3(jets[t.hess], jets[1 : d + 1], d)
        return triple_tensors(q, d)

    def support_hessian_many(
        self, nus: np.ndarray, maximizers: np.ndarray | None = None
    ) -> np.ndarray:
        """Ambient Hessian of the support function at directions nu, (N, d, d).

        Uses the inverse-function identity against the metric of the gauge:
        support_value(nu) * D2(support)(nu) = (I - outer(z, Dgauge(z))) G(z)^-1
        with z the touching point for nu.  G^-1 comes from solve_components on
        the order-2 jets at z.  Restricted to the tangent plane of
        the direction sphere this is the curvature matrix of the unit ball.
        """
        nus = np.asarray(nus, dtype=float)
        if maximizers is None:
            _, maximizers, _, ok = self.support_many(nus)
            if not np.all(ok):
                raise DualSolveError(f"support solve failed for {self.name}")
        z, d = maximizers, self.d
        comps = self.gauge_jets(z)
        eye = np.eye(d)
        rhs = np.broadcast_to(eye[:, :, None], (d, d, len(z)))
        g_inv = solve_components(metric_components(comps, d), rhs, self.name).transpose(2, 0, 1)
        proj = eye - np.einsum("ni,nj->nij", z, comps[1 : d + 1].T)
        f_val = np.einsum("ni,ni->n", nus, z)
        return np.einsum("nij,njk->nik", proj, g_inv) / f_val[:, None, None]

    def tangent_basis(self, nu: np.ndarray) -> np.ndarray:
        """Orthonormal basis of the hyperplane orthogonal to nu, (d-1,d)."""
        nu = np.asarray(nu, dtype=float)
        d = self.d
        basis = []
        for k in range(d):
            e = np.zeros(d)
            e[k] = 1.0
            v = e - np.dot(e, nu) * nu
            for b in basis:
                v -= np.dot(v, b) * b
            nv = np.linalg.norm(v)
            if nv > 1e-8:
                basis.append(v / nv)
            if len(basis) == d - 1:
                break
        return np.array(basis)

    def a_f_matrix(self, nu) -> np.ndarray:
        """Curvature matrix of the support function on the tangent plane of nu.

        Returned in an orthonormal tangent basis; symmetric positive definite
        for elliptic norms.
        """
        nu = np.asarray(nu, dtype=float)
        nu = nu / np.linalg.norm(nu)
        amb = self.support_hessian_many(nu[None, :])[0]
        basis = self.tangent_basis(nu)
        mat = basis @ amb @ basis.T
        return 0.5 * (mat + mat.T)

    # -- diagnostics ------------------------------------------------------

    def ellipticity_report(self, samples: int = 1000) -> dict:
        """Min eigenvalue of the squared-gauge Hessian over sampled directions."""
        dirs = sample_directions(samples, self.d)
        jets = self.gauge_jets(dirs, order=2)
        g_mat = self.metric_G_many(dirs, jets=jets)
        eig = np.linalg.eigvalsh(g_mat)
        min_eig = float(eig[:, 0].min())
        return {
            "min_eigenvalue": min_eig,
            "max_eigenvalue": float(eig[:, -1].max()),
            "near_degenerate": min_eig < 1e-6,
        }

    def homogeneity_residual(self, samples: int = 200, relative: bool = False) -> float:
        """max |gauge(t x) - t gauge(x)| over sampled unit x and t in {1/2, 2};
        relative divides it by the largest |gauge(x)|."""
        comps, res = self._homogeneity_sample(samples)
        return res / float(np.abs(comps[0]).max()) if relative else res

    def _homogeneity_sample(self, samples: int):
        """Order-2 jets at the unit x (component-major), and the absolute
        homogeneity residual; one jet evaluation.  The x are the sampled
        directions and +-E_1 ... +-E_d, where a gauge built from coordinate
        powers degenerates."""
        axes = np.eye(self.d)
        dirs = np.concatenate((sample_directions(samples, self.d), axes, -axes))
        lams = np.array([1.0, 0.5, 2.0])[:, None]
        comps = self.gauge_jets((lams[:, :, None] * dirs).reshape(-1, self.d))
        base, *scaled = comps[0].reshape(3, -1)
        res = max(float(np.abs(v - lam * base).max()) for v, lam in zip(scaled, lams[1:, 0]))
        return comps[:, : len(dirs)], res

    def verify_duality(self, samples: int = 100, seed: int = 42) -> dict:
        """Max residuals of the inverse-gauge identities over random samples.

        (a) gauge of the maximizer is 1; (b) the gauge gradient at the
        maximizer is the rescaled input direction; (c) the metric pairing of
        the maximizer against any vector equals the Euclidean pairing with the
        direction divided by the support value.
        """
        dirs = sample_directions(samples, self.d, seed)
        ys = random_directions(samples, self.d, seed=seed + 1)
        f_val, z, _, ok = self.support_many(dirs)
        jets = self.gauge_jets(z, order=2)
        res_a = float(np.abs(jets[0] - 1.0).max())
        res_b = float(np.abs(jets[1 : self.d + 1].T - dirs / f_val[:, None]).max())
        g_mat = self.metric_G_many(z, jets=jets)
        lhs = np.einsum("ni,nij,nj->n", z, g_mat, ys)
        rhs = np.einsum("ni,ni->n", ys, dirs) / f_val
        res_c = float(np.abs(lhs - rhs).max())
        return {
            "gauge_of_maximizer": res_a,
            "gradient_alignment": res_b,
            "metric_pairing": res_c,
            "all_converged": bool(np.all(ok)),
        }


class QuadraticNorm(Norm):
    """Gauge sqrt(x^T M x) with closed-form support and derivatives."""

    def __init__(self, m: np.ndarray, name: str = "quadratic"):
        m = np.asarray(m, dtype=float)
        super().__init__(m.shape[0], name=name)
        self.m = m
        self.m_inv = np.linalg.inv(m)
        self._m_tri = m[layout(self.d).pi, layout(self.d).pj][:, None]
        if self.d == 3:
            # the rim closure's constants: A^-1 of the horizontal block A, A^-1 m
            # for its column m, and s = M_33 - m^T A^-1 m
            self._a_inv = np.linalg.inv(m[:2, :2])
            self._a_inv_m = self._a_inv @ m[:2, 2]
            self._slice_s = float(m[2, 2] - m[:2, 2] @ self._a_inv_m)

    def gauge_jets(self, pts: np.ndarray, order: int = 2) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).T
        d, t = self.d, layout(self.d)
        out = np.empty((jet_rows(d, order), pts.shape[1]))
        mx = self.m @ pts
        q = (pts * mx).sum(axis=0)
        if np.any(q <= 0.0):
            raise EvalDomainError("quadratic gauge evaluated at the origin")
        val = out[0] = np.sqrt(q)
        grad = out[1 : d + 1] = mx / val
        hess = out[t.hess] = (self.m[t.pi, t.pj][:, None] - grad[t.pi] * grad[t.pj]) / val
        if order >= 3:
            out[t.third] = -sym3(hess, grad, d) / val
        return out

    def slice_maximizers(self, h, omega0, z0=None):
        """Closed form: on the slice z = (y, -omega0) the horizontal gradient is
        parallel to h when A y - omega0 m = t h, so y = t A^-1 h + omega0 A^-1 m,
        and gauge(z) = 1 reads t^2 h^T A^-1 h = 1 - omega0^2 s; the root t > 0
        turns the gradient M z / sqrt(z^T M z) towards h.  z0 is unused."""
        room = 1.0 - omega0 * omega0 * self._slice_s
        if not room > 0.0:
            raise FlowError(f"empty boundary slice at height {-omega0:.6g} for {self.name}")
        a_inv_h = self._a_inv @ h
        t = np.sqrt(room / (h * a_inv_h).sum(axis=0))
        z = np.empty((3, h.shape[1]))
        z[:2] = t * a_inv_h + omega0 * self._a_inv_m[:, None]
        z[2] = -omega0
        mz = self.m @ z
        val = np.sqrt((z * mz).sum(axis=0))
        return z.T, np.concatenate((val[None], mz / val))

    def support_many(self, xs, z0=None, tol=DUAL_TOL, return_jets=False, jets0=None):
        """Closed form; z0, tol and jets0 are unused.  A row whose x^T M^-1 x is
        not in (0, inf) is redone from x / max|x_i|: a zero row raises
        NormError, a NaN row comes back unconverged."""
        xs = np.asarray(xs, dtype=float)
        minv_x = xs @ self.m_inv
        val = np.sqrt(np.einsum("ni,ni->n", xs, minv_x))
        ok = (val > 0.0) & (val < np.inf)  # NaN fails
        if ok.all():
            z = minv_x / val[:, None]
        else:
            redo, scale = ~ok, np.abs(xs[~ok]).max(axis=1)
            if np.any(scale == 0.0):
                raise NormError("support direction must be nonzero")
            with np.errstate(invalid="ignore"):
                x_s = xs[redo] / scale[:, None]
                minv_x[redo] = x_s @ self.m_inv
                val[redo] = np.sqrt(np.einsum("ni,ni->n", x_s, minv_x[redo]))
                z = minv_x / val[:, None]
            val[redo] *= scale
            ok = np.isfinite(val)
        if not return_jets:
            return val, z, 0, ok
        return val, z, 0, ok, self.gauge_jets(z)

    def dual_metric(self, nu, z0=None, tol=DUAL_TOL, jets0=None):
        """Closed form: G = M at every point, its triangle broadcast over the
        directions."""
        s, z, _, ok = self.support_many(nu)
        return s, z, ok, np.broadcast_to(self._m_tri, (len(self._m_tri), len(s))), None


class ExpressionNorm(Norm):
    """Gauge given by a parsed expression."""

    def __init__(self, expression: Expression, name: str = "custom"):
        super().__init__(expression.dim, name=name)
        self.expression = expression

    def gauge_jets(self, pts: np.ndarray, order: int = 2) -> np.ndarray:
        return expr_mod.evaluate(self.expression, pts, order=order)


RAY_TOL = 1e-14
RAY_MAX_ITER = 100


def ray_roots(
    norm: Norm, dirs: np.ndarray, offset: np.ndarray, level: float
) -> tuple[np.ndarray, int]:
    """Distances rho > 0 with gauge(rho * dirs[n] + offset) = level, per row.

    The offset must lie strictly inside the level set.  Each ray runs Newton
    steps inside the bracket [lo, hi] that the sign of the residual keeps; a
    step that leaves the bracket is replaced by its midpoint.  A row stops
    once its step is at most RAY_TOL relative, and only unconverged rows are
    evaluated.  Returns the distances and the number of Newton passes.
    """
    dirs = np.asarray(dirs, dtype=float)
    n = dirs.shape[0]
    lo = np.zeros(n)
    hi = np.full(n, 2.0 * level)
    # expand until the gauge exceeds the level along every ray
    grow = np.arange(n)
    for _ in range(60):
        if grow.size == 0:
            break
        grow = grow[norm.f0_many(hi[grow, None] * dirs[grow] + offset) < level]
        hi[grow] *= 2.0
    rho = 0.5 * (lo + hi)
    act = np.arange(n)
    passes = 0
    while act.size and passes < RAY_MAX_ITER:
        passes += 1
        r, u = rho[act], dirs[act]
        jet = norm.gauge_jets(r[:, None] * u + offset, order=2)
        g = jet[0] - level
        hi[act] = np.where(g > 0, r, hi[act])
        lo[act] = np.where(g <= 0, r, lo[act])
        with np.errstate(all="ignore"):
            step = g / np.einsum("ni,ni->n", jet_gradients(jet, norm.d), u)
        r_new = r - step
        tol = RAY_TOL * np.maximum(1.0, r)
        # a converged step lands on its own bracket end: test it first
        done = np.abs(step) <= tol
        bad = ~done & (~np.isfinite(r_new) | (r_new <= lo[act]) | (r_new >= hi[act]))
        r_new[bad] = 0.5 * (lo[act][bad] + hi[act][bad])
        done |= np.abs(r_new - r) <= tol
        rho[act] = r_new
        act = act[~done]
    return rho, passes


class ShiftedGaugeNorm(Norm):
    """Gauge of a translated unit ball: the set base-ball + eta.

    The value t solves base_gauge(x - t*eta) = t, so t = 1/rho with rho the
    ray root of base_gauge(rho x - eta) = 1; derivatives follow from implicit
    differentiation of that relation and are exact closed forms in the base
    jets.  Requires base_gauge(-eta) < 1 so the origin stays interior.
    """

    def __init__(self, base: Norm, eta: np.ndarray, name: str | None = None):
        eta = np.asarray(eta, dtype=float)
        super().__init__(base.d, name=name or f"shifted-{base.name}")
        if float(np.linalg.norm(eta)) > 0 and base.f0(-eta) >= 1.0:
            raise NormError("shift puts the origin outside the translated ball")
        self.base = base
        self.eta = eta

    def gauge_jets(self, pts: np.ndarray, order: int = 2) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        t = 1.0 / ray_roots(self.base, pts, -self.eta, 1.0)[0]
        y = pts - t[:, None] * self.eta[None, :]
        return self._shifted_jet(t, self.base.gauge_jets(y, order=order), order)

    def support_many(self, xs, z0=None, tol=DUAL_TOL, return_jets=False, jets0=None):
        """The unit ball is the base ball + eta, so the support is the base
        support plus <x, eta> and the maximizer the base maximizer plus eta.
        There the shifted gauge is 1 and y = z - eta is the base maximizer, so
        the jets follow from the base jets with no ray roots.  z0, tol and
        jets0 are unused: the builtin base (QuarticGaugeNorm) is closed-form."""
        xs = np.asarray(xs, dtype=float)
        s, z, iterations, ok, *base_jets = self.base.support_many(xs, return_jets=return_jets)
        s = s + xs @ self.eta
        z = z + self.eta
        if not return_jets:
            return s, z, iterations, ok
        return s, z, iterations, ok, self._shifted_jet(np.ones(xs.shape[0]), base_jets[0], 2)

    def _shifted_jet(self, t: np.ndarray, base_jet: np.ndarray, order: int) -> np.ndarray:
        """Implicit differentiation of base_gauge(x - t eta) = t: the shifted
        gauge's jets at the points x = y + t eta, from its values t and the
        base jets at y (order 3 needs their third derivatives)."""
        d, lay, eta = self.d, layout(self.d), self.eta
        i, j = lay.pi, lay.pj
        ti, tj, tk = lay.ti, lay.tj, lay.tk
        g = base_jet[1 : d + 1]
        h = base_jet[lay.hess]
        c = 1.0 + eta @ g
        out = np.empty((jet_rows(d, order), t.size))
        out[0] = t
        out[1 : d + 1] = g / c
        # contractions with eta of the Hessian (to a vector) and of the third
        # derivatives (to a triangle, a vector and a scalar)
        h_eta = np.einsum("j,ijn->in", eta, h[lay.pair_slot])
        s2 = eta @ h_eta
        out[lay.hess] = (h / c - (h_eta[i] * g[j] + g[i] * h_eta[j]) / c**2
                         + s2 * (g[i] * g[j]) / c**3)
        if order >= 3:
            t3 = base_jet[lay.third]
            t3_eta = np.einsum("l,pln->pn", eta, t3[lay.triple_slot[i, j]])
            t3_eta2 = np.einsum("j,ijn->in", eta, t3_eta[lay.pair_slot])
            t3_eta3 = eta @ t3_eta2
            ggg = g[ti] * g[tj] * g[tk]

            def sym3_vgg(w):
                return w[ti] * g[tj] * g[tk] + w[tj] * g[ti] * g[tk] + w[tk] * g[ti] * g[tj]

            term2 = (sym3(t3_eta, g, d) + sym3(h, h_eta, d)) / c**2
            term3 = (sym3_vgg(t3_eta2) + s2 * sym3(h, g, d)
                     + 2.0 * sym3(h_eta[i] * h_eta[j], g, d)) / c**3
            term4 = (t3_eta3 * ggg + 3.0 * s2 * sym3_vgg(h_eta)) / c**4
            out[lay.third] = t3 / c - term2 + term3 - term4 + 3.0 * (s2 * s2) * ggg / c**5
        return out


def _meridian_slope(k: np.ndarray) -> np.ndarray:
    """The real root u of 2u^3 - k u^2 + u - 2k = 0 for |k| <= 1.

    Hyperbolic Cardano on the depressed cubic t^3 + p t + q = 0, u = t + k/6,
    where p = 1/2 - k^2/12 > 0 leaves one real root; then one Newton polish
    (the derivative 6u^2 - 2ku + 1 is positive).  Powers are written as
    products, which numpy evaluates several times faster than `**`.
    """
    kk = k * k
    p = 0.5 - kk / 12.0
    q = -k * (kk / 108.0 + 11.0 / 12.0)
    root_p3 = np.sqrt(p / 3.0)
    u = k / 6.0 - 2.0 * root_p3 * np.sinh(np.arcsinh(1.5 * q / (p * root_p3)) / 3.0)
    uu = u * u
    u -= (u * (2.0 * uu + 1.0) - k * (uu + 2.0)) / (6.0 * uu - 2.0 * k * u + 1.0)
    return u


class QuarticGaugeNorm(Norm):
    """Hand-vectorized jets and closed-form duality for the quartic family

        gauge(x)^4 = (x^2 + c*y^2 + z^2) * (x^2 + c*y^2) + z^4.

    c = 1 gives the rotationally symmetric example, c = 2 its stretched
    variant.  Equivalent to the expression-backed norm, whose dual and rim
    closure run the generic Newton solves instead.
    """

    def __init__(self, c: float = 1.0, name: str = "quartic"):
        super().__init__(3, name=name)
        self.c = float(c)

    def gauge_jets(self, pts: np.ndarray, order: int = 2) -> np.ndarray:
        """Jets of gauge = p^(1/4), p = gauge^4, by the chain rule from the
        derivatives of p, written out componentwise."""
        x, y, z = np.asarray(pts, dtype=float).T
        c, t = self.c, layout(3)
        zz = z * z
        q = x * x + c * y * y
        s = q + zz
        p = s * q + zz * zz
        if np.any(p <= 0.0):
            raise EvalDomainError("quartic gauge evaluated at the origin")
        qs = q + s
        dp = (2.0 * x * qs, 2.0 * c * y * qs, 2.0 * z * (q + 2.0 * zz))
        # d2p = ds (x) dq + dq (x) ds + q*d2s + s*d2q expanded componentwise
        d2p = (8.0 * x * x + 2.0 * qs, 8.0 * c * x * y, 4.0 * x * z,
               8.0 * c * c * y * y + 2.0 * c * qs, 4.0 * c * y * z, 2.0 * q + 12.0 * zz)
        out = np.empty((jet_rows(3, order), p.size))
        # gauge = p^(1/4); derivative factors via val to avoid extra pow calls
        val = out[0] = np.sqrt(np.sqrt(p))
        a1 = 0.25 * val / p
        a2 = -0.75 * a1 / p
        a2_dp = [a2 * dp_i for dp_i in dp]
        for k in range(3):
            np.multiply(a1, dp[k], out=out[1 + k])
        for k, (i, j) in enumerate(zip(t.pi, t.pj)):
            np.multiply(a1, d2p[k], out=out[4 + k])
            out[4 + k] += a2_dp[i] * dp[j]
        if order >= 3:
            # the third derivatives of p in the order 000 001 002 011 012 022
            # 111 112 122 222
            d3p = np.array((24.0 * x, 8.0 * c * y, 4.0 * z, 8.0 * c * x, np.zeros_like(x), 4.0 * x,
                            24.0 * c * c * y, 4.0 * c * z, 4.0 * c * y, 24.0 * z))
            dp = np.array(dp)
            a3 = -1.75 * a2 / p
            out[t.third] = (a1 * d3p + a2 * sym3(np.array(d2p), dp, 3)
                            + a3 * (dp[t.ti] * dp[t.tj] * dp[t.tk]))
        return out

    def support_many(self, xs, z0=None, tol=DUAL_TOL, return_jets=False, jets0=None):
        """Closed form; z0, tol and jets0 are unused.  Writing q = x^2 + c y^2,
        the stationarity nu = lam D(gauge^4) reads (nu_x, nu_y) = 2 lam A (x, c y)
        and nu_z = 2 lam B z with A = 2q + z^2, B = q + 2z^2.  So (x, y) is
        parallel to (nu_x, nu_y / c), q = r^2 for the meridian radius r, and
        the slope u = z/r solves 2u^3 - k u^2 + u - 2k = 0 with k = nu_z / nu_r,
        nu_r = sqrt(nu_x^2 + nu_y^2 / c).  The cubic is symmetric under
        (u, k) -> (1/u, 1/k), so past |k| = 1 it is solved for 1/u.  The
        maximizer is the point (nu_x, nu_y / c, nu_z A/B) scaled onto the unit
        level set, with A/B = (2 + u^2) / (1 + 2u^2)."""
        s, z, ok = self._support_components(xs)
        if not return_jets:
            return s, np.ascontiguousarray(z.T), 0, ok
        return s, np.ascontiguousarray(z.T), 0, ok, self.gauge_jets(z.T)

    def dual_metric(self, nu, z0=None, tol=DUAL_TOL, jets0=None):
        """Closed form: G = D2(gauge^2 / 2) = D2p / (4 sqrt(p)) - Dp Dp^T /
        (8 p^(3/2)) for p = gauge^4, and p = 1 at the maximizer z = (x, y, w).
        With q = x^2 + c y^2, r = 2q + w^2 and b = q + 2w^2, Dp = 2 (x r,
        c y r, w b), and the triangle of G reads

            (a x^2 + r/2, a c x y, e x w, a c^2 y^2 + c r/2, e c y w,
             (3 - b^2/2) w^2 + q/2),   a = 2 - r^2/2, e = 1 - r b/2."""
        s, z, ok = self._support_components(nu)
        x, y, w = z
        cy, ww = self.c * y, w * w
        q = x * x + cy * y
        r, b = q + q + ww, q + ww + ww
        a, e, half_r = 2.0 - 0.5 * r * r, 1.0 - 0.5 * r * b, 0.5 * r
        metric = np.stack((a * x * x + half_r, a * x * cy, e * x * w, a * cy * cy + self.c * half_r,
                           e * cy * w, (3.0 - 0.5 * b * b) * ww + 0.5 * q))
        return s, np.ascontiguousarray(z.T), ok, metric, None

    def _support_components(self, xs):
        """support_many's values, maximizers (3, N) and converged mask."""
        nx, ny, nz = np.asarray(xs, dtype=float).T
        # by homogeneity from x / max|x_i|, as in f0: no fourth power of a
        # huge or tiny direction overflows or underflows
        scale = np.maximum(np.maximum(np.abs(nx), np.abs(ny)), np.abs(nz))
        if np.any(scale == 0.0):
            raise NormError("support direction must be nonzero")
        nx, ny, nz = nx / scale, ny / scale, nz / scale
        ny_c = ny / self.c
        q = nx * nx + ny * ny_c
        nr = np.sqrt(q)
        swap = np.abs(nz) > nr
        with np.errstate(invalid="ignore"):
            u = _meridian_slope(np.where(swap, nr, nz) / np.where(swap, nz, nr))
            uu = u * u
            a, b = np.where(swap, 1.0, uu), np.where(swap, uu, 1.0)
            z3 = nz * (a + 2.0 * b) / (2.0 * a + b)
            zz = z3 * z3
            val = np.sqrt(np.sqrt((q + zz) * q + zz * zz))
            z = np.stack((nx / val, ny_c / val, z3 / val))
            s = scale * (q + nz * z3) / val
        return s, z, np.isfinite(s)

    def slice_maximizers(self, h, omega0, z0=None):
        """Closed form: the slice z_3 = -omega0 is the ellipse q = q* with
        q = x^2 + c y^2 and (q* + omega0^2) q* + omega0^4 = 1, so
        q* = (sqrt(4 - 3 omega0^4) - omega0^2) / 2, which is positive for
        |omega0| < 1.  The horizontal gradient is a positive multiple of
        (x, c y), so (x, c y) = t h with t^2 (h_1^2 + h_2^2 / c) = q*.  z0 is
        unused."""
        if not abs(omega0) < 1.0:
            raise FlowError(f"empty boundary slice at height {-omega0:.6g} for {self.name}")
        w2 = omega0 * omega0
        q_star = 0.5 * (np.sqrt(4.0 - 3.0 * w2 * w2) - w2)
        h1, h2 = h
        h2_c = h2 / self.c
        t = np.sqrt(q_star / (h1 * h1 + h2 * h2_c))
        z = np.empty((3, h.shape[1]))
        z[0] = t * h1
        z[1] = t * h2_c
        z[2] = -omega0
        return z.T, self.gauge_jets(z.T)[:4]


# ---------------------------------------------------------------------------
# Builtin norm catalogue

QUARTIC_A2_TEXT = "((x^2+y^2+z^2)*(x^2+y^2)+z^4)^(1/4)"

NORM_KINDS = (
    "sphere",
    "ellipsoid",
    "quartic_a2",
    "quartic_a2_prime",
    "quartic_a3",
    "custom",
)


def make_norm(
    kind: str,
    params: list[float] | None = None,
    f0_expr: str | None = None,
    dim: int = 3,
) -> Norm:
    """Construct one of the builtin norms or a custom expression norm."""
    params = list(params or [])
    if kind == "sphere":
        return QuadraticNorm(np.eye(dim), name="sphere")
    if kind == "ellipsoid":
        if len(params) != dim:
            raise NormError(f"ellipsoid needs {dim} axis parameters")
        if not all(a > 0 for a in params):  # written so that NaN fails
            raise NormError("ellipsoid parameters must be positive")
        return QuadraticNorm(np.diag([1.0 / a for a in params]), name="ellipsoid")
    if kind == "quartic_a2":
        return QuarticGaugeNorm(1.0, name="quartic_a2")
    if kind == "quartic_a2_prime":
        return QuarticGaugeNorm(2.0, name="quartic_a2_prime")
    if kind == "quartic_a3":
        if len(params) != 1:
            raise NormError("quartic_a3 needs the shift parameter [z0]")
        z0 = float(params[0])
        if not -1.0 < z0 < 1.0:
            raise NormError("quartic_a3 shift must lie in (-1, 1)")
        base = QuarticGaugeNorm(1.0, name="quartic_a2")
        return ShiftedGaugeNorm(
            base, np.array([0.0, 0.0, -z0]), name=f"quartic_a3(z0={z0})"
        )
    if kind == "custom":
        if not f0_expr:
            raise NormError("custom norm needs f0_expr")
        norm = ExpressionNorm(expr_mod.parse(f0_expr, dim=dim), name="custom")
        comps, res = norm._homogeneity_sample(200)
        base = comps[0]
        res /= float(np.abs(base).max())
        if not res <= HOMOGENEITY_TOL:  # written so that NaN fails
            raise NormError(
                "custom gauge is not positively 1-homogeneous: "
                f"|gauge(t x) - t gauge(x)| reaches {res:.3g} of max gauge(x)"
            )
        if not base.min() > 0.0:
            raise NormError(f"custom gauge is not positive: it reaches {base.min():.3g} "
                            "on a unit direction")
        g = triangle_matrices(metric_components(comps, dim), dim)
        eig = np.linalg.eigvalsh(g) if np.isfinite(g).all() else np.full((1, dim), np.nan)
        if not eig[:, 0].min() > ELLIPTICITY_TOL * eig[:, -1].max():
            raise NormError("custom gauge is degenerate: its metric G = F D2F + DF DF^T "
                            f"reaches eigenvalue {eig[:, 0].min():.3g} against "
                            f"{eig[:, -1].max():.3g} on the sampled unit directions")
        return norm
    raise NormError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")

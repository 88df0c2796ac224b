"""Capillary model shapes and translated-ball machinery.

Holds the anchor vector construction, the capillary model shape (a scaled,
vertically anchored translate of the unit ball of the dual gauge restricted
to the upper half-space), the translated gauge with its transferred metric
and third-order tensor, and the planar support function of the boundary
slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CapflowError
from .expr import jet_gradients
# the ray-root solver and its constants live with the norms; wulff re-exports them
from .norms import RAY_MAX_ITER, RAY_TOL, Norm, ray_roots, sample_directions


class WulffError(ValueError, CapflowError):
    """Invalid capillary shape construction or query."""


@dataclass(frozen=True)
class AnchorVector:
    """Center-line direction of the capillary model shapes.

    Satisfies <e_f, E_up> = 1 where E_up is the vertical unit vector.
    """

    e_f: np.ndarray
    omega0: float


def vertical(d: int) -> np.ndarray:
    e = np.zeros(d)
    e[-1] = 1.0
    return e


def admissible_interval(norm: Norm) -> tuple[float, float]:
    """Open interval of admissible contact parameters for this norm."""
    e_up = vertical(norm.d)
    return (-norm.support(e_up).value, norm.support(-e_up).value)


def anchor_vector(norm: Norm, omega0: float) -> AnchorVector:
    """Anchor direction for the given contact parameter.

    Built from the touching point of the supporting plane orthogonal to the
    vertical axis, from above for omega0 < 0 and from below for omega0 > 0;
    the vertical unit vector is chosen for omega0 = 0.
    """
    lo, hi = admissible_interval(norm)
    if not lo < omega0 < hi:
        raise WulffError(
            f"omega0={omega0} outside admissible interval ({lo:.6g}, {hi:.6g})"
        )
    e_up = vertical(norm.d)
    if omega0 < 0:
        res = norm.support(e_up)
        e_f = res.maximizer / res.value
    elif omega0 > 0:
        res = norm.support(-e_up)
        e_f = -res.maximizer / res.value
    else:
        e_f = e_up.copy()
    pairing = float(np.dot(e_f, e_up))
    if abs(pairing - 1.0) > 1e-10:
        raise WulffError(f"anchor pairing {pairing} != 1")
    return AnchorVector(e_f, float(omega0))


def plane_directions(d: int, angles) -> np.ndarray:
    """Horizontal unit directions (cos a, sin a, 0, ...) from planar angles, (N, d)."""
    a = np.atleast_1d(np.asarray(angles, dtype=float))
    dirs = np.zeros((a.size, d))
    dirs[:, 0], dirs[:, 1] = np.cos(a), np.sin(a)
    return dirs


def ball_slice_points(norm: Norm, omega0: float, plane_dirs: np.ndarray) -> np.ndarray:
    """Points of the unit ball at height -omega0 along horizontal unit directions."""
    offset = np.zeros(norm.d)
    offset[-1] = -omega0
    if omega0 != 0.0 and norm.f0(offset) >= 1.0:
        raise WulffError("empty boundary slice")
    rho, _ = ray_roots(norm, plane_dirs, offset, 1.0)
    return rho[:, None] * plane_dirs + offset


class CapillaryWulffShape:
    """Scaled translated unit ball of the dual gauge, cut by the half-space.

    Boundary points x satisfy gauge(x - r*omega0*e_f) = r.
    """

    def __init__(self, norm: Norm, r: float, omega0: float, anchor: AnchorVector | None = None):
        if r <= 0:
            raise WulffError("radius must be positive")
        self.norm = norm
        self.r = float(r)
        self.omega0 = float(omega0)
        self.anchor = anchor if anchor is not None else anchor_vector(norm, omega0)
        self.center = self.r * self.omega0 * self.anchor.e_f
        # ray solvability from the origin needs the center strictly interior
        # (a centered shape trivially is; the gauge is singular at 0)
        if self.omega0 != 0.0 and norm.f0(-self.center / self.r) >= 1.0:
            raise WulffError("origin is not interior to the shape")

    def radial_many(self, directions: np.ndarray) -> np.ndarray:
        """Radial distances along unit directions."""
        u = np.asarray(directions, dtype=float)
        rho, _ = ray_roots(self.norm, u.reshape(-1, self.norm.d), -self.center, self.r)
        return rho.reshape(u.shape[:-1])

    def surface_points(self, directions: np.ndarray) -> np.ndarray:
        u = np.asarray(directions, dtype=float)
        return self.radial_many(u)[..., None] * u

    def normals(self, points: np.ndarray) -> np.ndarray:
        """Outward Euclidean unit normals at boundary points."""
        g = jet_gradients(self.norm.gauge_jets(points - self.center, order=2), self.norm.d)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    def static_residual(self, sample_count: int = 1000, seed: int = 42) -> float:
        """Max violation of the first-order shape identity at sampled points.

        The identity states 1 + omega0 * G(nu_F)(nu_F, e_f) = u_hat / r at
        every boundary point.
        """
        dirs = sample_directions(2 * sample_count, self.norm.d, seed)
        dirs = dirs[dirs[:, -1] > 1e-6][:sample_count]
        pts = self.surface_points(dirs)
        nus = self.normals(pts)
        f_val, z, _, ok = self.norm.support_many(nus)
        if not np.all(ok):
            raise WulffError("dual solve failed while sampling the shape")
        u_hat = np.einsum("ni,ni->n", pts, nus) / f_val
        pairing = (nus @ self.anchor.e_f) / f_val
        res = 1.0 + self.omega0 * pairing - u_hat / self.r
        return float(np.abs(res).max())


class TranslatedNorm:
    """The base ball translated by omega0 times the anchor direction."""

    def __init__(self, base: Norm, omega0: float, anchor: AnchorVector | None = None):
        self.base = base
        self.omega0 = float(omega0)
        self.anchor = anchor if anchor is not None else anchor_vector(base, omega0)
        self.eta = self.omega0 * self.anchor.e_f
        if float(np.linalg.norm(self.eta)) > 0 and base.f0(-self.eta) >= 1.0:
            raise WulffError("translated ball does not contain the origin")

    def tilde_support(self, x) -> float:
        """Support function of the translated ball."""
        x = np.asarray(x, dtype=float)
        return self.base.support(x).value + float(np.dot(self.eta, x))

    def transfer_G_Q_many(
        self, zs: np.ndarray, xs: np.ndarray, ys: np.ndarray, zvecs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Transferred metric and third-order tensor values at base points.

        zs lie on the base unit ball and xs, ys, zvecs are tangent there; the
        values refer to the translated ball at zs + eta.
        """
        zs = np.asarray(zs, dtype=float)
        jets = self.base.gauge_jets(zs, order=3)
        g_mat = self.base.metric_G_many(zs, jets=jets)
        q_ten = self.base.tensor_Q_many(zs, jets=jets)
        c = 1.0 + self.eta @ jets[1 : self.base.d + 1]
        if np.any(c <= 0.0):
            raise WulffError("transfer hypothesis violated: 1 + G(z)(z,eta) <= 0")
        g_xy = np.einsum("ni,nij,nj->n", xs, g_mat, ys)
        g_zy = np.einsum("ni,nij,nj->n", zvecs, g_mat, ys)
        g_xz = np.einsum("ni,nij,nj->n", xs, g_mat, zvecs)
        eta = self.eta
        g_xe = np.einsum("ni,nij,j->n", xs, g_mat, eta)
        g_ye = np.einsum("ni,nij,j->n", ys, g_mat, eta)
        g_ze = np.einsum("ni,nij,j->n", zvecs, g_mat, eta)
        q_val = np.einsum("nijk,ni,nj,nk->n", q_ten, xs, ys, zvecs)
        g_t = g_xy / c
        q_t = q_val / c - (g_zy * g_xe + g_xy * g_ze + g_xz * g_ye) / c**2
        return g_t, q_t

    # -- boundary slice ----------------------------------------------------

    def slice_points(self, angles: np.ndarray) -> np.ndarray:
        """Base-ball points at height -omega0, one per planar angle (d = 3)."""
        if self.base.d != 3:
            raise WulffError("slice_points is for ambient dimension 3")
        return ball_slice_points(self.base, self.omega0, plane_directions(3, angles))

    def slice_support_table(self, samples: int) -> np.ndarray:
        """Support values at uniformly spaced planar normal angles (d = 3).

        The slice point with outward planar normal n is the rim closure's
        maximizer z (Norm.slice_maximizers), so the support at n is <n, z + eta>.
        """
        if self.base.d != 3:
            raise WulffError("slice_support_table is for ambient dimension 3")
        thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        h = np.stack([np.cos(thetas), np.sin(thetas)])
        z, c = self.base.slice_maximizers(h, self.omega0)
        if not np.all(h[0] * c[1] + h[1] * c[2] > 0.0):
            raise WulffError("boundary slice has no point with this planar normal")
        return (h * (z[:, :2].T + self.eta[:2, None])).sum(axis=0)


def translated_metric_Q(tn: TranslatedNorm, z, x_vec, y_vec, z_vec) -> tuple[float, float]:
    """Transferred metric and third-order tensor values at one base point."""
    g_t, q_t = tn.transfer_G_Q_many(
        np.asarray(z, dtype=float)[None, :],
        np.asarray(x_vec, dtype=float)[None, :],
        np.asarray(y_vec, dtype=float)[None, :],
        np.asarray(z_vec, dtype=float)[None, :],
    )
    return float(g_t[0]), float(q_t[0])

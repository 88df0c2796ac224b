"""Radial graphs over the closed half-sphere: grids, geometry, integrals.

A star-shaped capillary hypersurface is stored as phi = log(radius) on a
lattice over the upper half-sphere.  The geometry bundle carries every
pointwise quantity the flow and the integral checks need: normals, dual
support values, anisotropic principal curvatures, support functions, and
the speed field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import CapflowError
from .norms import Norm, QuadraticNorm, triangle_matrices
from .wulff import AnchorVector, CapillaryWulffShape, TranslatedNorm, anchor_vector


class SurfaceError(RuntimeError, CapflowError):
    """Geometry evaluation failed (dual solve or non-finite derivative)."""


class HalfSphereGrid:
    """Lattice over the closed upper half-sphere.

    n = 2: node lattice (beta_i, lambda_j) with beta in [0, pi/2], the pole
    at row 0, the boundary circle at row n_beta, and one ghost row beyond
    it; lambda periodic.  Ring quadrature weights are exact cell integrals
    of sin(beta), so the quadrature of 1 is exactly 2*pi.

    n = 3: cell-centered lattice (beta, lam1, lam2), n_lambda points in each
    lambda, used for interior integrals only.

    The orthonormal sphere frame (u, e1, ..., e_n), u the unit direction, is
    built once here: component-major (d, nodes) arrays over rings 1..n_beta
    for n = 2, node-major u (nodes, 4) and tangents (nodes, 3, 4) for n = 3.
    """

    def __init__(self, n: int = 2, n_beta: int = 64, n_lambda: int = 128):
        if n not in (2, 3):
            raise SurfaceError("intrinsic dimension must be 2 or 3")
        if n_beta < 8 or n_lambda < 8:
            raise SurfaceError("grid too coarse")
        self.n = n
        self.n_beta = n_beta
        self.n_lambda = n_lambda
        self.d = n + 1
        if n == 2:
            self.dbeta = 0.5 * np.pi / n_beta
            self.dlam = 2.0 * np.pi / n_lambda
            self.betas = self.dbeta * np.arange(n_beta + 1)
            self.lambdas = self.dlam * np.arange(n_lambda)
            half = 0.5 * self.dbeta
            w = np.cos(self.betas - half) - np.cos(self.betas + half)
            w[0] = 1.0 - np.cos(half)
            w[-1] = np.cos(0.5 * np.pi - half)
            self.ring_weights = w
            # per-ring trigonometry and the orthonormal frame (u, e1, e2) of
            # rings 1..n_beta, each frame vector component-major, (3, nodes)
            beta, lam = self.betas[1:, None], self.lambdas[None, :]
            sb, cb = np.sin(beta), np.cos(beta)
            self.sin_b, self.cot_b, self.sin2_b = sb, cb / sb, sb**2
            cl, sl, zero = np.cos(lam), np.sin(lam), 0 * sb * lam
            self.frame_u, self.frame_e1, self.frame_e2 = (
                np.stack([x + zero, y + zero, z + zero]).reshape(3, -1)
                for x, y, z in ((sb * cl, sb * sl, cb), (cb * cl, cb * sl, -sb), (-sl, cl, 0.0)))
            # azimuthal modes beyond ~pi sin(beta)/dbeta are unresolved on the
            # rings whose spacing sin(beta)*dlam is below dbeta (a prefix)
            sin_r = sb[:, 0][sb[:, 0] * self.dlam < self.dbeta]
            m_max = np.maximum(2, (np.pi * sin_r / self.dbeta).astype(int))
            self.polar_mask = np.arange(n_lambda // 2 + 1) > m_max[:, None]
        else:
            self.dbeta = 0.5 * np.pi / n_beta
            self.dlam1 = np.pi / n_lambda
            self.dlam2 = 2.0 * np.pi / n_lambda
            self.betas = self.dbeta * (np.arange(n_beta) + 0.5)
            self.lam1 = self.dlam1 * (np.arange(n_lambda) + 0.5)
            self.lam2 = self.dlam2 * np.arange(n_lambda)
            sb, cb = np.sin(self.betas)[:, None, None], np.cos(self.betas)[:, None, None]
            s1, c1 = np.sin(self.lam1)[None, :, None], np.cos(self.lam1)[None, :, None]
            s2, c2 = np.sin(self.lam2)[None, None, :], np.cos(self.lam2)[None, None, :]
            zero = np.zeros((n_beta, n_lambda, n_lambda))
            u, e1, e2, e3 = (
                np.stack([w + zero, x + zero, y + zero, z + zero], axis=-1).reshape(-1, 4)
                for w, x, y, z in ((sb * s1 * c2, sb * s1 * s2, sb * c1, cb),
                                   (cb * s1 * c2, cb * s1 * s2, cb * c1, -sb),
                                   (c1 * c2, c1 * s2, -s1, 0.0), (-s2, c2, 0.0, 0.0)))
            self.frame_u, self.frame_tangents = u, np.stack([e1, e2, e3], axis=-2)

    # -- directions --------------------------------------------------------

    def directions(self) -> np.ndarray:
        """Unit vectors at every lattice node (no ghost); the n = 2 pole row is E_up."""
        if self.n == 2:
            pole = np.broadcast_to([0.0, 0.0, 1.0], (1, self.n_lambda, 3))
            return np.concatenate((pole, self.frame_u.T.reshape(self.n_beta, self.n_lambda, 3)))
        return self.frame_u.reshape(self.n_beta, self.n_lambda, self.n_lambda, 4)

    def quad(self, field: np.ndarray, pole_value: float | None = None) -> float:
        """Integral over the half-sphere of a nodal field.

        n = 2: field has shape (n_beta, n_lambda) over rings 1..n_beta; the
        pole cell uses the supplied exact value or a two-ring Richardson
        estimate of the ring means.
        """
        if self.n == 2:
            means = field.mean(axis=1)
            if pole_value is None:
                pole_value = (4.0 * means[0] - means[1]) / 3.0
            w = self.ring_weights
            return float(2.0 * np.pi * (w[0] * pole_value + w[1:] @ means))
        meas = (np.sin(self.betas)[:, None, None] ** 2
                * np.sin(self.lam1)[None, :, None])
        return float(np.sum(field * meas) * self.dbeta * self.dlam1 * self.dlam2)


class GraphSurface:
    """phi = log(radius) on a half-sphere grid.

    For n = 2 phi has shape (n_beta + 2, n_lambda): row 0 is the pole,
    row n_beta the boundary circle, row n_beta + 1 the ghost layer.
    """

    def __init__(self, grid: HalfSphereGrid, phi: np.ndarray, time: float = 0.0):
        self.grid = grid
        self.phi = np.asarray(phi, dtype=float)
        self.time = float(time)
        if grid.n == 2:
            expect = (grid.n_beta + 2, grid.n_lambda)
        else:
            expect = (grid.n_beta, grid.n_lambda, grid.n_lambda)
        if self.phi.shape != expect:
            raise SurfaceError(f"phi shape {self.phi.shape} != {expect}")
        if not np.all(np.isfinite(self.phi)):
            raise SurfaceError("non-finite phi")

    @classmethod
    def from_radial(cls, grid: HalfSphereGrid, radial) -> "GraphSurface":
        """Build from a callable mapping direction arrays to radii."""
        dirs = grid.directions()
        rho = np.asarray(radial(dirs.reshape(-1, grid.d)), dtype=float)
        rho = rho.reshape(dirs.shape[:-1])
        if np.any(rho <= 0):
            raise SurfaceError("non-star-shaped data")
        phi = np.log(rho)
        if grid.n == 2:
            full = np.empty((grid.n_beta + 2, grid.n_lambda))
            full[: grid.n_beta + 1] = phi
            # ghost row: even reflection, later replaced by the boundary solve
            full[grid.n_beta + 1] = phi[grid.n_beta - 1]
            return cls(grid, full)
        return cls(grid, phi)

    @classmethod
    def from_wulff(cls, grid: HalfSphereGrid, shape: CapillaryWulffShape,
                   radial: np.ndarray | None = None) -> "GraphSurface":
        """The shape's graph; radial, its radii at grid.directions(), spares their ray roots."""
        surf = cls.from_radial(grid, shape.radial_many if radial is None else lambda _: radial)
        if grid.n == 2:
            # the model shape continues below the plane, so the ghost row can
            # be sampled exactly
            beta_g = 0.5 * np.pi + grid.dbeta
            dirs = np.stack(
                [np.sin(beta_g) * np.cos(grid.lambdas),
                 np.sin(beta_g) * np.sin(grid.lambdas),
                 np.full(grid.n_lambda, np.cos(beta_g))], axis=-1)
            surf.phi[grid.n_beta + 1] = np.log(shape.radial_many(dirs))
        return surf

    def copy(self) -> "GraphSurface":
        """A copy, whose phi is not checked again: every writer of phi checks it."""
        new = object.__new__(type(self))
        new.grid, new.phi, new.time = self.grid, self.phi.copy(), self.time
        return new


@dataclass
class GeometryBundle:
    """Pointwise geometry over the geometry nodes, plus grid bookkeeping.

    All fields are flattened over the geometry nodes; `shape` restores the
    lattice layout.  The fields a step reads come with the bundle; the
    record-time fields, the cached properties below, are computed on first
    access.  u_bar, area_el and Hk follow from the fields above for both n;
    kappaF and diffusion_max read `parts`, the n = 2 components of ghat and
    of the second fundamental form h (hhat = h / F), and for n = 3 geometry
    fills those two directly.  No step reads nu and nu_F: the n = 2 quadric
    path leaves them to the properties below, which read the surface's phi,
    and keeps its per-node coefficients in `projections`.
    """

    surface: GraphSurface
    norm: Norm
    omega0: float
    anchor: AnchorVector
    shape: tuple
    v: np.ndarray
    rho: np.ndarray
    F: np.ndarray
    u_hat: np.ndarray
    pairing: np.ndarray       # G(nu_F)(nu_F, E^F) = <nu, E^F>/F(nu)
    HF: np.ndarray            # sum of kappaF
    f: np.ndarray             # flow speed
    maximizer_jets: np.ndarray | None  # order-2 gauge jets at the maximizers, or None
    parts: dict | None = None
    projections: np.ndarray | None = None

    @cached_property
    def nu(self) -> np.ndarray:  # (N, d) unit normals, from the stencils of phi
        (f1, f2), grid = _stencils_n2(self.surface)[1][:2], self.surface.grid
        return ((grid.frame_u - (f1 * grid.frame_e1 + f2 * grid.frame_e2)) / self.v).T

    @cached_property
    def nu_F(self) -> np.ndarray:  # Cahn-Hoffman points, M^-1 nu / F for a quadric
        return self.nu @ self.norm.m_inv / self.F[:, None]

    maximizers = property(lambda self: self.nu_F)  # of the support solve

    @cached_property
    def u_bar(self) -> np.ndarray:  # capillary support function
        return self.u_hat / (1.0 + self.omega0 * self.pairing)

    @cached_property
    def area_el(self) -> np.ndarray:  # rho^n * v (per unit round measure)
        return self.rho**self.surface.grid.n * self.v

    @cached_property
    def kappaF(self) -> np.ndarray:  # (N, n) anisotropic principal curvatures
        # eigenvalues of M = L^-1 hhat L^-T, ghat = L L^T (Cholesky): the
        # symmetric M has the discriminant ((m11 - m22)/2)^2 + m12^2, a sum of
        # squares, so nearly equal curvatures keep their digits
        p = self.parts
        g11, a, t = p["ghat11"], p["a"], p["ghat12"] / p["ghat11"]
        h11, h12, h22 = (p[k] / self.F for k in ("h11", "h12", "h22"))
        m11 = h11 / g11
        m12 = (h12 - t * h11) / np.sqrt(a)
        m22 = (g11 / a) * (h22 - 2.0 * t * h12 + t * t * h11)
        mean, r = 0.5 * (m11 + m22), np.hypot(0.5 * (m11 - m22), m12)
        return np.stack([mean - r, mean + r], axis=1)

    @cached_property
    def Hk(self) -> np.ndarray:  # (N, n+1) normalized symmetric functions
        return _elementary_symmetric(self.kappaF)

    @cached_property
    def diffusion_max(self) -> float:
        # explicit-step diffusion bound: linearizing the speed in the frame
        # second derivatives of phi gives the matrix u_hat * ghat^{-1}
        # the eigenvalue gap of ghat as sqrt((g11 - g22)^2 + 4 g12^2), not as
        # sqrt(tr^2 - 4 det), which cancels where the eigenvalues nearly agree
        g11, g12, g22 = (self.parts[k] for k in ("ghat11", "ghat12", "ghat22"))
        return _diffusion_bound(self.u_hat, 0.5 * (g11 + g22 - np.hypot(g11 - g22, 2.0 * g12)))

    def quad(self, values: np.ndarray, pole_value: float | None = None) -> float:
        return self.surface.grid.quad(values.reshape(self.shape), pole_value)

    def trace_free_sq(self) -> np.ndarray:
        """|hhat - (HF/n) ghat|^2 in the ghat metric, from the curvatures."""
        n = self.surface.grid.n
        mean = self.HF / n
        return np.sum((self.kappaF - mean[:, None]) ** 2, axis=1)


def _diffusion_bound(u_hat: np.ndarray, lam_min: np.ndarray) -> float:
    """max u_hat / lam_min over the nodes, lam_min ghat's smallest eigenvalue."""
    if np.any(lam_min <= 0.0):
        raise SurfaceError(f"degenerate metric ghat: smallest eigenvalue {lam_min.min():.3g}")
    return float(np.max(u_hat / lam_min))


def _stencils_n2(surface: GraphSurface):
    """rho (N,) and the frame derivatives f1, f2, H11, H12, H22 of phi on rings
    1..n_beta (covariant Hessian on the round sphere), as one (5, N) array."""
    grid = surface.grid
    nb, db, dl = grid.n_beta, grid.dbeta, grid.dlam
    phi = surface.phi
    # the lambda neighbours are column slices of one periodically padded copy
    pad = np.concatenate((phi[:, -1:], phi, phi[:, :1]), axis=1)
    up, rows, down = pad[2:], pad[1 : nb + 1], pad[:nb]
    c, e, w = slice(1, -1), slice(2, None), slice(None, -2)
    sb, cot, out = grid.sin_b, grid.cot_b, np.empty((5, nb, grid.n_lambda))
    p_b = np.divide(up[:, c] - down[:, c], 2 * db, out=out[0])
    np.divide(up[:, c] - 2 * rows[:, c] + down[:, c], db**2, out=out[2])
    p_l = (rows[:, e] - rows[:, w]) / (2 * dl)
    p_ll = (rows[:, e] - 2 * rows[:, c] + rows[:, w]) / dl**2
    p_bl = (up[:, e] - up[:, w] - down[:, e] + down[:, w]) / (4 * db * dl)
    np.divide(p_l, sb, out=out[1])
    np.divide(p_bl - cot * p_l, sb, out=out[3])
    np.add(p_ll / grid.sin2_b, cot * p_b, out=out[4])
    return np.exp(phi[1 : nb + 1]).ravel(), out.reshape(5, -1)


def _d1(a, axis, h):
    return (np.roll(a, -1, axis=axis) - np.roll(a, 1, axis=axis)) / (2 * h)


def _d1_edge(a, axis, h):
    """Central interior, second-order one-sided at the two edges."""
    return np.gradient(a, h, axis=axis, edge_order=2)


def _d2_edge(a, axis, h):
    """Central interior, second-order one-sided at the two edges."""
    a = np.moveaxis(a, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - 2 * a[1:-1] + a[:-2]) / h**2
    out[0] = (2 * a[0] - 5 * a[1] + 4 * a[2] - a[3]) / h**2
    out[-1] = (2 * a[-1] - 5 * a[-2] + 4 * a[-3] - a[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def _frame_data_n3(surface: GraphSurface):
    grid = surface.grid
    phi = surface.phi
    db, d1, d2 = grid.dbeta, grid.dlam1, grid.dlam2
    p_b = _d1_edge(phi, 0, db)
    p_1 = _d1_edge(phi, 1, d1)
    p_2 = _d1(phi, 2, d2)
    p_bb = _d2_edge(phi, 0, db)
    p_11 = _d2_edge(phi, 1, d1)
    p_22 = (np.roll(phi, -1, axis=2) - 2 * phi + np.roll(phi, 1, axis=2)) / d2**2
    p_b1 = _d1_edge(p_b, 1, d1)
    p_b2 = _d1(p_b, 2, d2)
    p_12 = _d1(p_1, 2, d2)
    b = grid.betas[:, None, None]
    l1 = grid.lam1[None, :, None]
    sb, cb = np.sin(b), np.cos(b)
    s1, c1 = np.sin(l1), np.cos(l1)
    cotb = cb / sb
    cot1 = c1 / s1
    # covariant Hessian in coordinates, then rescale to the orthonormal frame
    Hbb = p_bb
    Hb1 = p_b1 - cotb * p_1
    Hb2 = p_b2 - cotb * p_2
    H11c = p_11 + sb * cb * p_b
    H12c = p_12 - cot1 * p_2
    H22c = p_22 + sb * cb * s1**2 * p_b + s1 * c1 * p_1
    s2f = sb
    s3f = sb * s1
    f = np.stack([p_b, p_1 / s2f, p_2 / s3f], axis=-1)
    hess = np.empty(phi.shape + (3, 3))
    hess[..., 0, 0] = Hbb
    hess[..., 0, 1] = hess[..., 1, 0] = Hb1 / s2f
    hess[..., 0, 2] = hess[..., 2, 0] = Hb2 / s3f
    hess[..., 1, 1] = H11c / s2f**2
    hess[..., 1, 2] = hess[..., 2, 1] = H12c / (s2f * s3f)
    hess[..., 2, 2] = H22c / s3f**2
    # flattened over the nodes, as the geometry bundle stores them
    return (phi.shape, np.exp(phi).ravel(), f.reshape(-1, 3), hess.reshape(-1, 3, 3),
            grid.frame_u, grid.frame_tangents)


def _elementary_symmetric(kappa: np.ndarray) -> np.ndarray:
    """Normalized elementary symmetric functions H_0..H_n of the rows."""
    n = kappa.shape[1]
    out = np.empty((kappa.shape[0], n + 1))
    out[:, 0] = 1.0
    if n == 2:
        out[:, 1] = 0.5 * (kappa[:, 0] + kappa[:, 1])
        out[:, 2] = kappa[:, 0] * kappa[:, 1]
    else:
        k1, k2, k3 = kappa[:, 0], kappa[:, 1], kappa[:, 2]
        out[:, 1] = (k1 + k2 + k3) / 3.0
        out[:, 2] = (k1 * k2 + k1 * k3 + k2 * k3) / 3.0
        out[:, 3] = k1 * k2 * k3
    return out


def _quadric_projections(grid: HalfSphereGrid, norm: QuadraticNorm,
                         anchor: AnchorVector) -> np.ndarray:
    """The fixed per-node coefficients of the n = 2 quadric geometry, (15, N):
    u.u, -2 u.e1, -2 u.e2, e1.e1, 2 e1.e2, e2.e2 in the M^-1 product, which
    make (F v)^2 = F(u - f_i e_i)^2 a quadratic in f1, f2; u.u, u.e1, u.e2,
    e1.e1, e1.e2, e2.e2 in the M product; e_F.u, e_F.e1, e_F.e2."""
    frame = np.stack((grid.frame_u, grid.frame_e1, grid.frame_e2))
    a, b = [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]
    inv, met = (np.einsum("pin,ij,pjn->pn", frame[a], m, frame[b]) for m in (norm.m_inv, norm.m))
    inv *= np.array([1.0, -2.0, -2.0, 1.0, 2.0, 1.0])[:, None]
    return np.concatenate((inv, met, np.einsum("i,pin->pn", anchor.e_f, frame)))


def geometry(
    surface: GraphSurface,
    norm: Norm,
    omega0: float,
    anchor: AnchorVector | None = None,
    warm: GeometryBundle | None = None,
    dual_tol: float = 1e-12,
) -> GeometryBundle:
    """Full pointwise geometry of the graph surface under the given norm.

    n = 2 with a quadric gauge sqrt(z^T M z) takes no dual solve: F v, the
    pairing and ghat = T^T M T are quadratic in the slopes f1, f2 with per-node
    coefficients (_quadric_projections, taken from warm once computed), and nu
    and nu_F wait for a read.  Otherwise G at the Cahn-Hoffman points comes
    from norm.dual_metric, whose solve warm, a bundle of a nearby surface on
    the same grid, starts from its maximizers and their jets.
    """
    grid = surface.grid
    n = grid.n
    if anchor is None:
        anchor = anchor_vector(norm, omega0)
    quadric = n == 2 and isinstance(norm, QuadraticNorm)
    if n == 2:
        shape = (grid.n_beta, grid.n_lambda)
        rho, derivs = _stencils_n2(surface)
        if not np.isfinite(derivs).all():
            raise SurfaceError("non-finite derivative (blow-up?)")
        f1, f2, H11, H12, H22 = derivs
        u, e1, e2 = grid.frame_u, grid.frame_e1, grid.frame_e2
        f11, f22 = f1 * f1, f2 * f2
        v = np.sqrt(1.0 + (f11 + f22))
        if not quadric:
            nu = ((u - (f1 * e1 + f2 * e2)) / v).T
    else:
        shape, rho, p, H, u, frame = _frame_data_n3(surface)
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(H))):
            raise SurfaceError("non-finite derivative (blow-up?)")
        v = np.sqrt(1.0 + np.sum(p**2, axis=1))
        nu = (u - (p[:, :, None] * frame).sum(axis=1)) / v[:, None]
    xi_jets, proj, lazy = None, None, {}
    if quadric:
        proj = getattr(warm, "projections", None)
        if proj is None or not (warm.surface.grid is grid and warm.norm is norm
                                and warm.anchor is anchor):
            proj = _quadric_projections(grid, norm, anchor)
        iuu, iu1, iu2, i11, i12, i22, muu, mu1, mu2, m11, m12, m22, au, a1, a2 = proj
        fv = np.sqrt(iuu + f1 * (iu1 + f1 * i11 + f2 * i12) + f2 * (iu2 + f2 * i22))
        f_val, u_hat, pairing = fv / v, rho / fv, (au - (f1 * a1 + f2 * a2)) / fv
        # ghat_ij = rho^2 (f_i f_j u.u + f_i u.e_j + f_j u.e_i + e_i.e_j) in M
        rr, c1, c2 = rho * rho, f1 * muu + mu1, f2 * muu + mu2
        g11 = rr * (f1 * (c1 + mu1) + m11)
        g12 = rr * (f2 * c1 + f1 * mu2 + m12)
        g22 = rr * (f2 * (c2 + mu2) + m22)
    else:
        z0, jets0 = (None, None) if warm is None else (warm.maximizers, warm.maximizer_jets)
        f_val, xi, ok, G_xi, xi_jets = norm.dual_metric(nu, z0, dual_tol, jets0)
        if not np.all(ok):
            raise SurfaceError(f"dual solve failed at {int(np.sum(~ok))} nodes")
        u_hat, pairing = rho / (v * f_val), (nu @ anchor.e_f) / f_val
        lazy.update(nu=nu, nu_F=xi)
    denom = 1.0 + omega0 * pairing
    if n == 2:
        if not quadric:
            # ghat = T G T^T with the ambient coordinate tangents T_i = rho (f_i u + e_i)
            T1 = rho * (f1 * u + e1)
            T2 = rho * (f2 * u + e2)
            GT2 = norm.metric_times(G_xi, T2)
            g11 = (T1 * norm.metric_times(G_xi, T1)).sum(axis=0)
            g12 = (T1 * GT2).sum(axis=0)
            g22 = (T2 * GT2).sum(axis=0)
        # hhat = h / F by components, h = (rho / v) (I + p p^T - H); HF = tr(ghat^-1 hhat)
        s = rho / v
        h11, h12 = s * (1.0 + f11 - H11), s * (f1 * f2 - H12)
        h22 = s * (1.0 + f22 - H22)
        a = g11 * g22 - g12**2
        HF = (h11 * g22 + h22 * g11 - 2.0 * h12 * g12) / f_val / a
        parts = dict(h11=h11, h12=h12, h22=h22, ghat11=g11, ghat12=g12, ghat22=g22, a=a)
    else:
        parts = None
        # ambient coordinate tangents in the orthonormal sphere frame
        T = rho[:, None, None] * (p[:, :, None] * u[:, None, :] + frame)
        ghat = T @ triangle_matrices(G_xi, n + 1) @ T.transpose(0, 2, 1)
        h = (rho / v)[:, None, None] * (np.eye(n) + p[:, :, None] * p[:, None, :] - H)
        # eigenvalues of hhat = h / F in a ghat-orthonormal basis via Cholesky
        Linv = np.linalg.inv(np.linalg.cholesky(ghat))
        M = np.einsum("nab,nbc,ndc->nad", Linv, h / f_val[:, None, None], Linv)
        kappa = np.linalg.eigvalsh(M)
        HF = kappa.sum(axis=1)
        lazy.update(kappaF=kappa,
                    diffusion_max=_diffusion_bound(u_hat, np.linalg.eigvalsh(ghat)[:, 0]))
    bundle = GeometryBundle(
        surface=surface, norm=norm, omega0=float(omega0), anchor=anchor, shape=shape,
        v=v, rho=rho, F=f_val, u_hat=u_hat, pairing=pairing, HF=HF,
        f=n * denom - u_hat * HF, maximizer_jets=xi_jets, parts=parts, projections=proj,
    )
    bundle.__dict__.update(lazy)
    return bundle


# -- global integrals ------------------------------------------------------


def enclosed_volume(bundle: GeometryBundle) -> float:
    """(n+1)-volume enclosed by the surface and the bottom plane."""
    grid = bundle.surface.grid
    n = grid.n
    vals = bundle.rho ** (n + 1)
    pole = None
    if n == 2:
        pole = float(np.exp(bundle.surface.phi[0, 0]) ** (n + 1))
    return bundle.quad(vals, pole) / (n + 1)


def _boundary_rho(surface: GraphSurface) -> np.ndarray:
    return np.exp(surface.phi[surface.grid.n_beta])


def wetted_area(surface: GraphSurface) -> float:
    """Area of the wetted region enclosed by the boundary trace (n = 2)."""
    rb = _boundary_rho(surface)
    return float(0.5 * np.sum(rb**2) * surface.grid.dlam)


def capillary_area(bundle: GeometryBundle) -> float:
    """Anisotropic area plus omega0 times the wetted area, normalized."""
    grid = bundle.surface.grid
    n = grid.n
    if n == 3:
        return quermassintegral_interior(bundle, 0)
    aniso = bundle.quad(bundle.F * bundle.area_el)
    return (aniso + bundle.omega0 * wetted_area(bundle.surface)) / (n + 1)


def quermassintegral_interior(bundle: GeometryBundle, k: int) -> float:
    """V_{k+1} by the interior formula (valid for capillary surfaces)."""
    n = bundle.surface.grid.n
    if not 0 <= k <= n:
        raise SurfaceError("k out of range")
    integrand = bundle.Hk[:, k] * (1.0 + bundle.omega0 * bundle.pairing) \
        * bundle.F * bundle.area_el
    return bundle.quad(integrand) / (n + 1)


class SliceSupportTable:
    """Periodic C2 cubic spline of the boundary slice support function (n = 2).

    On the uniform knots the spline's second derivatives solve the circulant
    system h/6 (M- + 4M + M+) = (y+ - 2y + y-)/h, one rfft divide.
    """

    def __init__(self, tn: TranslatedNorm, samples: int = 1024):
        self.h = 2.0 * np.pi / samples
        self.vals = tn.slice_support_table(samples)
        cos_k = np.cos(2.0 * np.pi * np.arange(samples // 2 + 1) / samples)
        ratio = 6.0 * (cos_k - 1.0) / (self.h**2 * (2.0 + cos_k))
        self.m2 = np.fft.irfft(np.fft.rfft(self.vals) * ratio, samples)

    def _cell(self, theta: np.ndarray):
        t = np.mod(theta, 2.0 * np.pi) / self.h
        # t of a knot k h may land a few ulps past k, at the far end of cell k - 1
        t = np.where(np.abs(t - np.rint(t)) <= 4.0 * np.finfo(float).eps * t, np.rint(t), t)
        j = np.minimum(np.floor(t).astype(int), self.vals.size - 1)
        return j, (j + 1) % self.vals.size, t - j

    def value(self, theta: np.ndarray) -> np.ndarray:
        j, k, s = self._cell(theta)
        y, m2, r = self.vals, self.m2, 1.0 - s
        return r * y[j] + s * y[k] + self.h**2 / 6.0 * (
            (r**3 - r) * m2[j] + (s**3 - s) * m2[k])

    def second(self, theta: np.ndarray) -> np.ndarray:
        j, k, s = self._cell(theta)
        return (1.0 - s) * self.m2[j] + s * self.m2[k]


def _boundary_curve(surface: GraphSurface):
    """Boundary trace radius and its spectral lambda-derivatives."""
    rb = _boundary_rho(surface)
    nl = rb.size
    freq = np.fft.rfftfreq(nl, d=1.0 / nl)
    fr = np.fft.rfft(rb)
    rb1 = np.fft.irfft(1j * freq * fr, nl)
    rb2 = np.fft.irfft(-(freq**2) * fr, nl)
    return rb, rb1, rb2


def quermassintegral_boundary(
    bundle: GeometryBundle, k: int, table: SliceSupportTable
) -> float:
    """V_{k+1} by interior curvature term plus the boundary slice term (n = 2)."""
    grid = bundle.surface.grid
    n = grid.n
    if n != 2:
        raise SurfaceError("boundary form implemented for n = 2 only")
    if not 1 <= k <= n:
        raise SurfaceError("k out of range")
    interior = bundle.quad(bundle.Hk[:, k] * bundle.F * bundle.area_el)
    rb, rb1, rb2 = _boundary_curve(bundle.surface)
    lam = grid.lambdas
    speed = np.sqrt(rb**2 + rb1**2)
    # outward planar normal angle of the trace curve
    x1 = rb1 * np.cos(lam) - rb * np.sin(lam)
    y1 = rb1 * np.sin(lam) + rb * np.cos(lam)
    theta = np.arctan2(-x1, y1)
    barf = table.value(theta)
    if k == 1:
        weight = np.ones_like(rb)
    else:
        kappa_plane = (rb**2 + 2 * rb1**2 - rb * rb2) / speed**3
        weight = (barf + table.second(theta)) * kappa_plane
    boundary = np.sum(weight * barf * speed) * grid.dlam
    return (interior + (bundle.omega0 / n) * boundary) / (n + 1)


def minkowski_residual(bundle: GeometryBundle, k: int) -> float:
    """Normalized defect of the capillary curvature-integral identity."""
    n = bundle.surface.grid.n
    if not 0 <= k <= n - 1:
        raise SurfaceError("k out of range")
    dmu = bundle.F * bundle.area_el
    num = bundle.quad(
        (bundle.Hk[:, k] * (1.0 + bundle.omega0 * bundle.pairing)
         - bundle.Hk[:, k + 1] * bundle.u_hat) * dmu
    )
    return num / bundle.quad(dmu)


def boundary_capillarity_residual(bundle: GeometryBundle) -> float:
    """max |<nu_F, E_up> + omega0| over the boundary ring (n = 2)."""
    grid = bundle.surface.grid
    if grid.n != 2:
        raise SurfaceError("boundary residual is for n = 2")
    nu_F = bundle.nu_F.reshape(bundle.shape + (3,))
    return float(np.max(np.abs(nu_F[-1, :, 2] + bundle.omega0)))


# -- export ----------------------------------------------------------------


def export_obj(surface: GraphSurface, path: str) -> None:
    """Wavefront OBJ mesh of the graph surface (n = 2)."""
    grid = surface.grid
    if grid.n != 2:
        raise SurfaceError("OBJ export is for n = 2")
    nb, nl = grid.n_beta, grid.n_lambda
    dirs = grid.directions()
    rho = np.exp(surface.phi[: nb + 1])
    pts = rho[..., None] * dirs
    lines = ["# capflow surface export"]
    pole = pts[0].mean(axis=0)
    lines.append(f"v {pole[0]:.9g} {pole[1]:.9g} {pole[2]:.9g}")
    for i in range(1, nb + 1):
        for j in range(nl):
            x, y, z = pts[i, j]
            lines.append(f"v {x:.9g} {y:.9g} {z:.9g}")

    def vid(i, j):
        return 2 + (i - 1) * nl + (j % nl)

    for j in range(nl):
        lines.append(f"f 1 {vid(1, j)} {vid(1, j + 1)}")
    for i in range(1, nb):
        for j in range(nl):
            a, b = vid(i, j), vid(i, j + 1)
            c, d2 = vid(i + 1, j + 1), vid(i + 1, j)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d2}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

"""Admissibility check for the contact parameter.

Samples the slice of the unit ball of the dual gauge at the contact height,
builds the co-normal frame there, and evaluates the third-order-tensor
margin that decides whether a given contact parameter is admissible for a
given norm.  Also evaluates the equivalent translated-ball form and scans
for the largest admissible parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import CapflowError
from .expr import jet_gradients
from .norms import Norm, fibonacci_sphere
from .wulff import TranslatedNorm, WulffError, ball_slice_points, plane_directions, vertical

TOL_CONDITION = 1e-6
TOL_DEGENERATE = 1e-8
# slice samples of condition_check, and of check-condition without condition.samples
CONDITION_SAMPLES = 256
# scan_max_omega bisects until its bracket is this narrow
TOL_OMEGA = 1e-3


class ConditionError(ValueError, CapflowError):
    pass


@dataclass
class SliceFrame:
    """Frame at one slice point of the unit ball at the contact height.

    The batched frames of slice_frames carry a leading sample axis on every
    field.
    """

    z: np.ndarray
    nu: np.ndarray
    mu: np.ndarray
    tangents: np.ndarray  # (m, d) basis of the slice tangent space, (N, m, d) batched
    af_mu: np.ndarray
    f_of_nu: float
    degenerate: bool


@dataclass
class ConditionReport:
    omega0: float
    samples: list = field(default_factory=list)
    min_margin: float = np.inf
    satisfied: bool = False
    both_forms_agree: bool = True
    min_margin_translated: float = np.inf
    degenerate_count: int = 0


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ni->n", a, b)[:, None]


def slice_frames(
    norm: Norm, omega0: float, plane_dirs: np.ndarray
) -> tuple[SliceFrame, np.ndarray, np.ndarray]:
    """Frames at the slice points along horizontal unit directions (N, d).

    Returns the frame, whose fields all carry a leading sample axis, and the
    metric G (N, d, d) and third-order tensor Q (N, d, d, d) at the slice
    points, both from one order-3 jet evaluation.  A slice point z is the
    Cahn-Hoffman point of its own normal nu, so F(nu) = <nu, z> / gauge(z)
    and the maximizer is z / gauge(z): no dual solve.
    """
    n, d = plane_dirs.shape
    try:
        z = ball_slice_points(norm, omega0, plane_dirs)
    except WulffError as exc:
        raise ConditionError("empty slice: contact height outside the ball") from exc
    jets = norm.gauge_jets(z, order=3)
    grad = jet_gradients(jets, d)
    nu = grad / np.linalg.norm(grad, axis=1, keepdims=True)
    # slice tangents: orthogonal to both the vertical axis and the normal;
    # a vertical normal leaves the normal alone in the span
    up_perp = vertical(d) - nu[:, -1:] * nu
    nrm_up = np.linalg.norm(up_perp, axis=1, keepdims=True)
    with np.errstate(all="ignore"):
        up_unit = np.where(nrm_up < 1e-12, 0.0, up_perp / nrm_up)
    m = d - 2
    tangents = np.zeros((n, m, d))
    count = np.zeros(n, dtype=int)
    rows = np.arange(n)
    for seed in np.eye(d):
        # Gram-Schmidt of each seed against the span and the tangents so far;
        # slots not filled yet are zero and leave v unchanged
        v = np.tile(seed, (n, 1))
        for b in [nu, up_unit] + [tangents[:, j] for j in range(m)]:
            v -= _rowdot(v, b) * b
        nrm = np.linalg.norm(v, axis=1)
        take = (nrm > 1e-10) & (count < m)
        tangents[rows[take], count[take]] = v[take] / nrm[take, None]
        count += take
    if np.any(count < m):
        raise ConditionError("degenerate slice tangent space")
    # co-normal: tangent to the ball, orthogonal to the slice tangents
    mu = up_perp.copy()
    for j in range(m):
        mu -= _rowdot(mu, tangents[:, j]) * tangents[:, j]
    nrm = np.linalg.norm(mu, axis=1, keepdims=True)
    if np.any(nrm < 1e-12):
        raise ConditionError("degenerate co-normal")
    mu /= nrm
    mu[mu[:, -1] > 0] *= -1.0
    zmax = z / jets[0][:, None]
    f_val = np.einsum("ni,ni->n", nu, zmax)
    af_mu = np.einsum("nij,nj->ni", norm.support_hessian_many(nu, maximizers=zmax), mu)
    g_mat = norm.metric_G_many(z, jets=jets)
    deg = np.einsum("ni,nij,nj->n", af_mu, g_mat, af_mu) < TOL_DEGENERATE**2
    frame = SliceFrame(z, nu, mu, tangents, af_mu, f_val, deg)
    return frame, g_mat, norm.tensor_Q_many(z, jets=jets)


def slice_frame(norm: Norm, omega0: float, angle) -> SliceFrame:
    """Slice point, outward normal, outward co-normal, and slice tangents.

    The co-normal is tangent to the ball boundary, orthogonal to the slice,
    and oriented downward (negative vertical component), pointing out of the
    region of the ball above the contact plane.  The slice point lies along
    (cos angle, sin angle, 0, ...).
    """
    fr, _, _ = slice_frames(norm, omega0, plane_directions(norm.d, angle))
    return SliceFrame(
        fr.z[0], fr.nu[0], fr.mu[0], fr.tangents[0], fr.af_mu[0],
        float(fr.f_of_nu[0]), bool(fr.degenerate[0]),
    )


def condition_margins(omega0: float, frame: SliceFrame, g_mat, q_ten):
    """Margins of the admissibility inequality at one frame or a batch.

    g_mat and q_ten are the metric and third-order tensor at the frame's
    slice points, with the frame's leading axes.  The slice tangent is used
    in d = 3, and the minimum over a 32-direction tangent sweep in d = 4.
    """
    if frame.tangents.shape[-2] == 1:
        ys = frame.tangents
    else:
        sweep = np.linspace(0.0, np.pi, 32, endpoint=False)[:, None]
        t1, t2 = frame.tangents[..., :1, :], frame.tangents[..., 1:2, :]
        ys = np.cos(sweep) * t1 + np.sin(sweep) * t2
    scale = (frame.mu[..., -1] * frame.f_of_nu)[..., None]
    q_val = np.einsum("...ijk,...si,...sj,...k->...s", q_ten, ys, ys, frame.af_mu)
    g_val = np.einsum("...si,...ij,...sj->...s", ys, g_mat, ys)
    return (q_val * scale / g_val).min(axis=-1) - omega0


def condition_margin(norm: Norm, omega0: float, frame: SliceFrame) -> float:
    """Margin of the admissibility inequality at one frame.

    Positive means the inequality holds strictly at this sample.  For d = 4
    the minimum over a 32-direction tangent sweep is returned.
    """
    zs = frame.z[None, :]
    jets = norm.gauge_jets(zs, order=3)
    g_mat = norm.metric_G_many(zs, jets=jets)[0]
    q_ten = norm.tensor_Q_many(zs, jets=jets)[0]
    return float(condition_margins(omega0, frame, g_mat, q_ten))


def condition_margin_translated(tn: TranslatedNorm, frame: SliceFrame) -> float:
    """Translated-ball form of the margin: minus the transferred third-order
    tensor paired with (Y, Y, A_F(nu) mu), Y the first slice tangent.

    Agrees in sign with the original margin up to a positive factor.
    """
    y = frame.tangents[0]
    _, q_t = tn.transfer_G_Q_many(
        frame.z[None, :], y[None, :], y[None, :], frame.af_mu[None, :]
    )
    return float(-q_t[0])


def condition_check(
    norm: Norm,
    omega0: float,
    slice_samples: int = CONDITION_SAMPLES,
    translated: bool = True,
) -> ConditionReport:
    """Sampled check of the admissibility inequality over the whole slice."""
    report = ConditionReport(omega0=float(omega0))
    tn = None
    if translated:
        try:
            tn = TranslatedNorm(norm, omega0)
        except WulffError:
            tn = None
    if norm.d == 3:
        angles = np.linspace(0.0, 2.0 * np.pi, slice_samples, endpoint=False)
        plane_dirs = plane_directions(3, angles)
    else:
        plane_dirs = np.pad(fibonacci_sphere(slice_samples), ((0, 0), (0, 1)))
    fr, g_mat, q_ten = slice_frames(norm, omega0, plane_dirs)
    m = condition_margins(omega0, fr, g_mat, q_ten)
    y = fr.tangents[:, 0]
    report.samples = [
        {"z": zi, "Y": yi, "margin": float(mi)} for zi, yi, mi in zip(fr.z, y, m)
    ]
    report.min_margin = float(np.min(m, initial=np.inf))
    report.degenerate_count = int(np.count_nonzero(fr.degenerate))
    if tn is not None:
        mt = -tn.transfer_G_Q_many(fr.z, y, y, fr.af_mu)[1]
        report.min_margin_translated = float(np.min(mt, initial=np.inf))
        tol = TOL_CONDITION
        same = ((m >= -tol) & (mt >= -tol)) | ((m < -tol) & (mt < -tol)) \
            | (np.abs(m) <= tol) | (np.abs(mt) <= tol)
        report.both_forms_agree = bool(np.all(same))
    report.satisfied = report.min_margin >= -TOL_CONDITION
    return report


def scan_max_omega(
    norm: Norm,
    bracket: tuple[float, float],
    slice_samples: int = CONDITION_SAMPLES,
) -> float:
    """Bisection for the supremum admissible contact parameter."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ConditionError("invalid bracket")

    def ok(w):
        rep = condition_check(norm, w, slice_samples=slice_samples, translated=False)
        return rep.min_margin >= -TOL_CONDITION

    ok_lo, ok_hi = ok(lo), ok(hi)
    if ok_lo and ok_hi:
        return hi
    if not ok_lo:
        return lo
    while hi - lo > TOL_OMEGA:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

"""Semi-implicit time stepping of the graph flow with the oblique boundary solve.

The scalar unknown is phi = log(radius) on the half-sphere lattice.  Each
step evaluates the geometry bundle, forms the speed, filters the
high-azimuthal modes near the pole (standard lat-long stiffness control),
and solves (I - dt A L) delta = dt * speed with L the round Laplacian and A
the bundle's diffusion bound (stabilized semi-implicit stepping, Smereka
2003), so dt scales with dbeta, not dbeta^2.  The ghost layer then closes
the contact-angle relation at the boundary ring: the relation pins each rim
maximizer to the unit ball's slice at height -omega0, where
Norm.slice_maximizers finds it (in closed form for the quadric and quartic
gauges, by a 2x2 Newton per rim node for a custom or shifted one), and the
ghost value and the closure's residual follow from the gauge's value and
gradient there.  A quadric's geometry reads per-node frame projections, made
once per run and handed on by the bundles.  The implicit solve's per-mode
inverse is built once per run by tridiagonal elimination.
A fixed dt_override takes A = 0: forward Euler, the reference explicit
scheme; a step that moves phi by more than MAX_PHI_STEP ends the run as a
blow-up.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import CapflowError
from .norms import FlowError, Norm
from .surface import (
    GeometryBundle,
    GraphSurface,
    HalfSphereGrid,
    capillary_area,
    enclosed_volume,
    export_obj,
    geometry,
    minkowski_residual,
    quermassintegral_interior,
)
from .wulff import AnchorVector, CapillaryWulffShape, anchor_vector


class BlowUpError(FlowError):
    """Non-finite state or runaway amplitude during stepping."""


INITIAL_PRESETS = ("perturbed-cap", "cap")


@dataclass
class FlowConfig:
    norm: Norm
    omega0: float
    n_beta: int = 64
    n_lambda: int = 128
    cfl_sigma: float = 0.4
    t_end: float = 10.0
    convergence_tol: float = 1e-2
    boundary_tol: float = 1e-8
    record_every: int = 25
    snapshot_every: int = 0
    epsilon: float = 0.1
    seed: int = 42
    initial: str = "perturbed-cap"
    dt_override: float | None = None
    output_dir: str | None = None

    def __post_init__(self):
        # written so that NaN fails every check; |epsilon| < 1 keeps 1 + eps*P > 0
        for ok, msg in (
            (0.0 < self.cfl_sigma < 1.0, "cfl_sigma must lie in (0, 1)"),
            (self.n_beta >= 16 and self.n_lambda >= 16, "grid sizes must be at least 16"),
            (self.t_end > 0.0, "t_end must be positive"),
            (self.convergence_tol > 0.0, "convergence_tol must be positive"),
            (self.boundary_tol > 0.0, "boundary_tol must be positive"),
            (self.record_every >= 1, "record_every must be at least 1"),
            (self.snapshot_every >= 0, "snapshot_every must not be negative"),
            (abs(self.epsilon) < 1.0, "epsilon must lie in (-1, 1)"),
            (self.seed >= 0, "seed must not be negative"),
            (self.initial in INITIAL_PRESETS,
             f"initial must be one of {', '.join(INITIAL_PRESETS)}"),
            (self.dt_override is None or self.dt_override > 0.0,
             "dt_override must be positive"),
        ):
            if not ok:
                raise FlowError(msg)


TRACE_COLUMNS = (
    "t", "dt", "V0", "V1_boundary", "V1_interior", "V2_interior", "supF",
    "min_kappaF", "min_ubar", "mink_res_k0", "mink_res_k1",
    "rate_err_k0", "rate_err_k1",
)


@dataclass
class FlowTrace:
    records: list = field(default_factory=list)
    converged: bool = False
    blow_up: bool = False
    r0: float = float("nan")
    radial_deviation: float = float("nan")
    barrier_r1: float = float("nan")
    barrier_r2: float = float("nan")
    barrier_violation: float = 0.0
    min_ubar_initial: float = float("nan")
    min_ubar_drop: float = 0.0
    v1_increase: float = 0.0
    steps: int = 0
    stop_reason: str = ""

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.records])

    def to_csv(self, path: str) -> None:
        errs = rate_checks(self)
        lines = [",".join(TRACE_COLUMNS)]
        for i, r in enumerate(self.records):
            row = dict(r, rate_err_k0=errs["err_k0"][i], rate_err_k1=errs["err_k1"][i])
            lines.append(",".join(f"{row[c]:.12g}" for c in TRACE_COLUMNS))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def perturbation_field(grid: HalfSphereGrid, epsilon: float, seed: int) -> np.ndarray:
    """Low-harmonic radial perturbation vanishing to second order at the rim.

    Returns the multiplicative factor (1 + epsilon * P) on the full node
    lattice (rows 0..n_beta; for n = 3 the cell-centred lattice), max |P| = 1.
    For n = 3, P = cos(beta)^2 (a0 + a1 sin(beta) cos(lam1) + a2 sin(beta)
    sin(lam1) cos(lam2) + a3 sin(beta) sin(lam1) sin(lam2)).
    """
    rng = np.random.default_rng(seed)
    if grid.n == 3:
        a = rng.uniform(-1.0, 1.0, size=4)
        u = grid.frame_u
        p = u[:, 3] ** 2 * (a[0] + u[:, [2, 0, 1]] @ a[1:])
        p = p.reshape(grid.n_beta, grid.n_lambda, grid.n_lambda)
        return 1.0 + epsilon * p / np.abs(p).max()
    b = grid.betas[:, None]
    l = grid.lambdas[None, :]
    p = np.zeros((grid.n_beta + 1, grid.n_lambda))
    for m in range(4):
        amp_c, amp_s = rng.uniform(-1.0, 1.0, size=2)
        # m-fold modes must vanish like sin(beta)^m at the pole for smoothness
        radial = np.sin(b) ** m if m > 0 else 1.0
        p += radial * (amp_c * np.cos(m * l) + amp_s * np.sin(m * l))
    p *= np.cos(b) ** 2
    p /= np.abs(p).max()
    return 1.0 + epsilon * p


def initial_surface(config: FlowConfig, anchor: AnchorVector) -> GraphSurface:
    return _initial_state(config, anchor)[0]


def _initial_state(config: FlowConfig, anchor: AnchorVector):
    """The preset start surface and the unit cap's radii at the lattice
    directions, (n_beta + 1, n_lambda): one set of ray roots builds both."""
    grid = HalfSphereGrid(2, config.n_beta, config.n_lambda)
    shape = CapillaryWulffShape(config.norm, 1.0, config.omega0, anchor)
    unit_radial = shape.radial_many(grid.directions())
    surf = GraphSurface.from_wulff(grid, shape, unit_radial)
    if config.initial == "perturbed-cap":
        factor = perturbation_field(grid, config.epsilon, config.seed)
        surf.phi[: grid.n_beta + 1] += np.log(factor)
        boundary_enforce(surf, config.norm, config.omega0, config.boundary_tol)
    return surf, unit_radial


def boundary_enforce(
    surface: GraphSurface,
    norm: Norm,
    omega0: float,
    tol: float = 1e-8,
    z0: np.ndarray | None = None,
) -> float:
    """Solve the ghost row so the contact relation holds at the boundary ring.

    At beta = pi/2 the rim direction is w = h + p_beta E_up, where h = u -
    p_lambda e2 is horizontal and only p_beta depends on the ghost value.  The
    maximizer z of <w, .> lies on the unit ball's slice z_3 = -omega0, where
    the horizontal gauge gradient is parallel to h: norm.slice_maximizers
    finds it with the gauge's value and gradient there (a closed form for
    the quadric and quartic gauges; for a custom or shifted gauge a 2x2 Newton
    per node from z0, the rim maximizers (n_lambda, 3) of a nearby surface).
    Then w = s Dgauge(z) with s = |h|^2 / <h, D_h gauge> gives p_beta = s d_3
    gauge.  As z_3 = -omega0 exactly, z maximizes <w, .> when the closure's
    residual max(|gauge - 1|, |h_1 d_2 gauge - h_2 d_1 gauge| / <h, D_h gauge>)
    is 0; its rim maximum must reach tol and is returned.  This checks the
    closure's convergence; tests pin the ghost value by independent solves.
    """
    grid = surface.grid
    if grid.n != 2:
        raise FlowError("boundary enforcement is for n = 2")
    nb, nl = grid.n_beta, grid.n_lambda
    row = surface.phi[nb]
    ext = np.concatenate((row[-1:], row, row[:1]))
    p_l = (ext[2:] - ext[:-2]) / (2 * grid.dlam)
    h = (grid.frame_u[:, -nl:] - p_l * grid.frame_e2[:, -nl:])[:2]
    _, c = norm.slice_maximizers(h, omega0, z0)
    h1, h2 = h
    along = h1 * c[1] + h2 * c[2]
    if not np.all(along > 0.0):
        raise FlowError("boundary slice has no point with the rim normal")
    p_b = (h1 * h1 + h2 * h2) / along * c[3]
    res = float(np.maximum(np.abs(c[0] - 1.0), np.abs(h1 * c[2] - h2 * c[1]) / along).max())
    if not res <= tol:
        raise FlowError(f"boundary closure did not reach {tol} (residual {res:.3e})")
    surface.phi[nb + 1] = surface.phi[nb - 1] + 2 * grid.dbeta * p_b
    return res


def polar_filter(rhs: np.ndarray, grid: HalfSphereGrid) -> np.ndarray:
    """Damp unresolvable azimuthal modes on the rings next to the pole.

    On rings where the physical azimuthal spacing sin(beta)*dlam drops below
    dbeta, modes with wavelength shorter than ~2*dbeta are zeroed.  This is
    the standard spectral fix for the lat-long time-step restriction; it
    leaves resolved content untouched.
    """
    rows = len(grid.polar_mask)
    if rows == 0:
        return rhs
    spec = np.fft.rfft(rhs[:rows], axis=1)
    spec[grid.polar_mask] = 0.0
    rhs = rhs.copy()
    rhs[:rows] = np.fft.irfft(spec, grid.n_lambda, axis=1)
    return rhs


def cfl_dt(grid: HalfSphereGrid, diffusion_max: float, cfl_sigma: float) -> float:
    """Euler step bound: sigma * h_min^2 / (2 n D_max) with h_min = dbeta.

    The polar filter guarantees the finest resolved wavelength is ~dbeta in
    both directions, so dbeta is the correct h_min despite sin(beta)*dlam
    being smaller near the pole.
    """
    return cfl_sigma * grid.dbeta**2 / (2.0 * grid.n * diffusion_max)


# dt = cfl_dt * STABILIZED_C / dbeta grows like h, not faster: late in a run the
# discretization error raises V1 at a grid-dependent rate per unit time against
# a slack granted per step.  A larger C also widens the O(dt) bias and record
# spacing in the rate identities; the quartic_a2 acceptance flow's dV1/dt check
# misses its 2.5e-4 absolute guard by 1% at C = 0.3 and holds at 0.27.
STABILIZED_C = 0.27


def time_step(grid: HalfSphereGrid, diffusion_max: float, cfl_sigma: float) -> float:
    """Stabilized step size dt = cfl_dt * C / dbeta at A = diffusion_max."""
    return cfl_dt(grid, diffusion_max, cfl_sigma) * STABILIZED_C / grid.dbeta


def stabilized_diffusion(grid: HalfSphereGrid, cfl_sigma: float) -> "ImplicitDiffusion":
    """Implicit solve of the stabilized step.  Its coefficient dt * A =
    sigma * C * dbeta / (2 n) does not depend on A, so one serves a whole run."""
    return ImplicitDiffusion(grid, cfl_sigma * STABILIZED_C * grid.dbeta / (2.0 * grid.n))


class ImplicitDiffusion:
    """Solves (I - c L) x = delta on rows 0..n_beta; c = 0 returns delta itself.

    L is the 5-point round Laplacian.  Per azimuthal mode m (rfft in lambda,
    lam_m = (2 - 2 cos(m dlam)) / dlam^2) rows 1..n_beta read (x+ - 2x + x-)/
    dbeta^2 + cot(beta) (x+ - x-)/(2 dbeta) - lam_m x/sin^2(beta), closed by
    x_{n_beta+1} = x_{n_beta-1}; the pole row is 4 (x_1 - x_0)/dbeta^2 for
    m = 0 and x_0 = 0 for m >= 1.  For c >= 0, (I - c L) is an M-matrix, so
    each mode's tridiagonal matrix is inverted once by elimination without
    pivoting, all modes at once: (n_beta + 1)^2 (n_lambda/2 + 1) doubles.  x
    is no larger than delta.
    """

    def __init__(self, grid: HalfSphereGrid, c: float):
        self.grid, self._inverse = grid, None
        if c < 0.0:
            raise FlowError(f"implicit diffusion coefficient {c:.6g} is negative")
        if c == 0.0:
            return
        nb, db = grid.n_beta, grid.dbeta
        beta = grid.betas[1:]
        cot = np.cos(beta) / np.sin(beta)
        lower = 1.0 / db**2 - cot / (2 * db)
        upper = np.concatenate(([4.0 / db**2], 1.0 / db**2 + cot[:-1] / (2 * db)))
        lower[-1] = 2.0 / db**2
        m = np.arange(grid.n_lambda // 2 + 1)
        lam_m = (2.0 - 2.0 * np.cos(m * grid.dlam)) / grid.dlam**2
        diag = np.empty((m.size, nb + 1))
        diag[:, 0] = np.where(m == 0, 4.0 / db**2, 0.0)
        diag[:, 1:] = 2.0 / db**2 + lam_m[:, None] / np.sin(beta) ** 2
        rows = np.arange(nb + 1)
        inverse = np.zeros((m.size, nb + 1, nb + 1))
        inverse[:, rows, rows] = 1.0
        # LU without pivoting (Thomas) of every mode at once, applied to I; a
        # coefficient too large for the pivots fails the finiteness check
        with np.errstate(all="ignore"):
            sub = -c * lower
            sup = np.tile(-c * upper, (m.size, 1))
            sup[1:, 0] = 0.0
            pivot = 1.0 + c * diag
            for i in rows[1:]:
                w = sub[i - 1] / pivot[:, i - 1]
                pivot[:, i] -= w * sup[:, i - 1]
                inverse[:, i] -= w[:, None] * inverse[:, i - 1]
            inverse[:, nb] /= pivot[:, nb, None]
            for i in rows[-2::-1]:
                inverse[:, i] -= sup[:, i, None] * inverse[:, i + 1]
                inverse[:, i] /= pivot[:, i, None]
        if not np.isfinite(inverse).all():
            raise FlowError("implicit diffusion inverse is not finite")
        self._inverse = inverse

    def solve(self, delta: np.ndarray) -> np.ndarray:
        """x for the increment delta, shape (n_beta + 1, n_lambda), row 0 the pole."""
        if self._inverse is None:
            return delta
        spec = np.fft.rfft(delta, axis=1)
        spec[0, 1:] = 0.0
        rhs = np.ascontiguousarray(spec.T).view(np.float64).reshape(*spec.shape[::-1], 2)
        x = self._inverse @ rhs
        spec = np.ascontiguousarray(x).view(np.complex128)[..., 0].T
        return np.fft.irfft(spec, self.grid.n_lambda, axis=1)


def step(
    surface: GraphSurface,
    norm: Norm,
    omega0: float,
    anchor: AnchorVector,
    bundle: GeometryBundle,
    dt: float,
    diffusion: ImplicitDiffusion,
    boundary_tol: float = 1e-8,
) -> tuple[GraphSurface, GeometryBundle]:
    """One step of size dt through the given implicit solve, from surface and
    its bundle; returns the new surface and its bundle.

    The dual solve and the generic boundary closure start warm from bundle's
    maximizers; the closed forms take no start, so a quadric's stay unread.
    """
    if dt < 1e-12:
        raise FlowError("time step underflow")
    grid = surface.grid
    new = surface.copy()
    _advance(new, bundle, dt, diffusion)
    newton = type(norm).slice_maximizers is Norm.slice_maximizers
    z0 = bundle.maximizers[-grid.n_lambda:] if newton else None
    boundary_enforce(new, norm, omega0, boundary_tol, z0=z0)
    new.time = surface.time + dt
    return new, geometry(new, norm, omega0, anchor, warm=bundle, dual_tol=1e-9)


# a step that moves some node's phi by more than MAX_PHI_STEP (its radius by a
# factor e) is a blow-up; converging flows move phi by at most a few 1e-2
MAX_PHI_STEP = 1.0


def _advance(surface: GraphSurface, bundle: GeometryBundle, dt: float,
             diffusion: ImplicitDiffusion) -> None:
    grid = surface.grid
    nb = grid.n_beta
    rhs = (bundle.v * bundle.F * bundle.f / bundle.rho).reshape(bundle.shape)
    rhs = polar_filter(rhs, grid)
    means = rhs.mean(axis=1)
    delta = np.empty((nb + 1, grid.n_lambda))
    delta[0] = dt * ((4.0 * means[0] - means[1]) / 3.0)
    delta[1:] = dt * rhs
    move = diffusion.solve(delta)
    surface.phi[: nb + 1] += move
    jump = float(np.abs(move).max())
    if not jump <= MAX_PHI_STEP:
        raise BlowUpError(f"a step moved phi by {jump:.3g} (bound {MAX_PHI_STEP:g})")
    if np.abs(surface.phi).max() > 20.0 or not np.all(np.isfinite(surface.phi)):
        raise BlowUpError("phi out of range")


def run(config: FlowConfig):
    """Run the flow to convergence or t_end; returns (trace, final surface).

    Convergence means sup|f| below config.convergence_tol.  The trace
    records the quermassintegrals, residuals, and monitor values every
    record_every steps plus the final state, which after a failed step is
    the last completed one; trace.stop_reason says why the run ended.
    """
    norm, omega0 = config.norm, config.omega0
    anchor = anchor_vector(norm, omega0)
    surface, unit_radial = _initial_state(config, anchor)
    grid = surface.grid
    # volume of the unit cap, by the quadrature of enclosed_volume
    v0_unit = grid.quad(unit_radial[1:] ** 3, unit_radial[0, 0] ** 3) / 3
    trace = FlowTrace()

    # containment barriers from the initial data
    f0_vals = norm.f0_many(
        np.exp(surface.phi[: grid.n_beta + 1]).reshape(-1, 1)
        * grid.directions().reshape(-1, 3)
        / 1.0
    )
    e_f = anchor.e_f
    c3, c4 = float(f0_vals.min()), float(f0_vals.max())
    f0_plus = norm.f0(omega0 * e_f) if omega0 != 0.0 else 0.0
    f0_minus = norm.f0(-omega0 * e_f) if omega0 != 0.0 else 0.0
    trace.barrier_r1 = c3 / (2.0 * (1.0 + f0_plus))
    trace.barrier_r2 = 2.0 * c4 / (1.0 - f0_minus)

    bundle = geometry(surface, norm, omega0, anchor)
    trace.min_ubar_initial = float(bundle.u_bar.min())
    if config.dt_override is None:
        dt = time_step(grid, bundle.diffusion_max, config.cfl_sigma)
        diffusion = stabilized_diffusion(grid, config.cfl_sigma)
    else:
        dt, diffusion = config.dt_override, ImplicitDiffusion(grid, 0.0)
        bound = cfl_dt(grid, bundle.diffusion_max, config.cfl_sigma)
        if dt > bound:
            warnings.warn(f"flow.dt_override = {dt:.6g} exceeds the explicit step "
                          f"bound {bound:.6g}; a fixed step runs forward Euler",
                          RuntimeWarning, stacklevel=2)
    prev_v1 = None

    def record(b, used_dt):
        nonlocal prev_v1
        v1b = capillary_area(b)
        v1i = quermassintegral_interior(b, 0)
        rec = {
            "t": b.surface.time,
            "dt": used_dt,
            "V0": enclosed_volume(b),
            "V1_boundary": v1b,
            "V1_interior": v1i,
            "V2_interior": quermassintegral_interior(b, 1),
            "supF": float(np.abs(b.f).max()),
            "min_kappaF": float(b.kappaF.min()),
            "min_ubar": float(b.u_bar.min()),
            "mink_res_k0": minkowski_residual(b, 0),
            "mink_res_k1": minkowski_residual(b, 1),
            # instantaneous rate integrals for the post-hoc comparisons
            "rate_V1": -grid.n / ((grid.n + 1) * (grid.n - 1))
            * b.quad(b.trace_free_sq() * b.u_hat * b.F * b.area_el),
            "rate_V2": (grid.n - 1) / (grid.n + 1)
            * b.quad(b.f * b.Hk[:, 2] * b.F * b.area_el),
            "steps": trace.steps,
        }
        ratio = np.exp(b.surface.phi[: grid.n_beta + 1]) / unit_radial
        rec["ratio_min"] = float(ratio.min())
        rec["ratio_max"] = float(ratio.max())
        trace.barrier_violation = max(
            trace.barrier_violation,
            max(trace.barrier_r1 - rec["ratio_min"], 0.0),
            max(rec["ratio_max"] - trace.barrier_r2, 0.0),
        )
        trace.min_ubar_drop = max(
            trace.min_ubar_drop, trace.min_ubar_initial - rec["min_ubar"]
        )
        if prev_v1 is not None:
            steps_between = max(trace.steps - prev_v1[1], 1)
            slack = 1e-6 * abs(v1b) * steps_between
            trace.v1_increase = max(trace.v1_increase, v1b - prev_v1[0] - slack)
        prev_v1 = (v1b, trace.steps)
        trace.records.append(rec)
        if config.snapshot_every and config.output_dir:
            if trace.steps % config.snapshot_every == 0:
                export_obj(
                    b.surface, f"{config.output_dir}/snap_{trace.steps}.obj"
                )

    record(bundle, dt)
    try:
        while surface.time < config.t_end:
            if float(np.abs(bundle.f).max()) <= config.convergence_tol:
                trace.converged = True
                trace.stop_reason = "converged"
                break
            surface, bundle = step(surface, norm, omega0, anchor, bundle, dt, diffusion,
                                   config.boundary_tol)
            trace.steps += 1
            if trace.steps % 20 == 0 and config.dt_override is None:
                dt = time_step(grid, bundle.diffusion_max, config.cfl_sigma)
            if trace.steps % config.record_every == 0:
                record(bundle, dt)
        else:
            trace.stop_reason = "t_end"
    except CapflowError as exc:
        # any stepping failure (runaway amplitude, degenerate boundary or
        # dual solve, gauge evaluated off its domain, dt underflow) ends the
        # run; surface and bundle still hold the last completed step
        trace.blow_up = True
        trace.stop_reason = f"{type(exc).__name__}: {exc}"
    if trace.records and trace.records[-1]["steps"] != trace.steps:
        record(bundle, dt)
    # convergence fit: radius from volume, deviation along grid rays
    v0 = trace.records[-1]["V0"]
    trace.r0 = (v0 / v0_unit) ** (1.0 / (grid.n + 1))
    ratio = np.exp(surface.phi[: grid.n_beta + 1]) / unit_radial
    trace.radial_deviation = float(np.abs(ratio - trace.r0).max())
    return trace, surface


def rate_checks(trace: FlowTrace) -> dict:
    """Centered-difference quermassintegral rates vs the integral formulas.

    err_k0 compares dV1/dt against the trace-free curvature integral, err_k1
    compares dV2/dt against the speed-weighted curvature integral.  Ends use
    one-sided differences.
    """
    recs = trace.records
    m = len(recs)
    err0 = np.zeros(m)
    err1 = np.zeros(m)
    abs0 = np.zeros(m)
    abs1 = np.zeros(m)
    if m < 3:
        return {"err_k0": err0, "err_k1": err1, "abs_k0": abs0, "abs_k1": abs1}
    t = np.array([r["t"] for r in recs])
    v1 = np.array([r["V1_boundary"] for r in recs])
    v2 = np.array([r["V2_interior"] for r in recs])
    dv1 = np.gradient(v1, t)
    dv2 = np.gradient(v2, t)
    for i in range(m):
        r1, r2 = recs[i]["rate_V1"], recs[i]["rate_V2"]
        abs0[i] = abs(dv1[i] - r1)
        abs1[i] = abs(dv2[i] - r2)
        err0[i] = abs0[i] / max(abs(r1), 1e-12)
        err1[i] = abs1[i] / max(abs(r2), 1e-12)
    return {"err_k0": err0, "err_k1": err1, "abs_k0": abs0, "abs_k1": abs1}

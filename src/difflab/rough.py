"""Rough-coefficient parabolic solver and the constructive estimate checks.

The equation is a(t,x) dw/dt - lap w = f with measurable a pinched between
a0 and c0*a0.  Everything the estimates promise is spelled out with explicit
constants; this module computes those constants in closed form and compares
them against measured quantities:

* oscillation decay: osc over the quarter cylinder vs (1 - delta) plus a
  forcing term with constant A times a calibrated kernel prefactor;
* supremum bound: K1 * C * T^(1 - 1/p - d/(2q)) * ||f_+|| + ||w_init||_inf;
* Hoelder bound with exponent alpha = min(log4(1/(1-delta)), gamma, 1/2) and
  the dyadic iteration tracer osc_k <= C1 * (sup + Lip) * Lambda^k.

The solver *measures* the monotonicity hypothesis dw/dt >= 0 instead of
enforcing it: the reported fraction of node-steps with negative increment is
part of every run report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, PreconditionError
from .grid import Field, ParabolicCylinder, Trajectory, march
from .norms import (holder_norm, lipschitz_norm, lp_norm, lpq_norm,
                    oscillation, reciprocal)
from .report import EstimateReport

_INF = float("inf")


# ---------------------------------------------------------------------------
# explicit constants


@dataclass(frozen=True)
class ConstantsBundle:
    """Closed-form constants for integrability exponents (p, q) in dim d.

    gamma = 2 - 2/p - d/q must be positive; delta is the one-step oscillation
    gain, beta the parabolic time-window shape, A the forcing constant, alpha
    the Hoelder exponent, K1 the sup-bound constant.
    """

    d: int
    p: float
    q: float
    a0: float
    c0: float
    gamma: float
    beta: float
    delta: float
    A: float
    alpha: float
    K1: float

    def to_dict(self) -> dict:
        from dataclasses import asdict
        return asdict(self)


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def explicit_constants(d: int, p: float, q: float, a0: float,
                       c0: float) -> ConstantsBundle:
    """Evaluate the closed-form constants; raises unless gamma > 0."""
    if d not in (1, 2, 3, 4):
        raise ParameterError(f"d must be 1..4, got {d}")
    p = float(p)
    q = float(q)
    if (p != _INF and p < 1) or (q != _INF and q < 1):
        raise ParameterError("p and q must be >= 1 or inf")
    if a0 <= 0:
        raise ParameterError("a0 must be positive")
    if c0 < 1:
        raise ParameterError("c0 must be >= 1")
    ip, iq = reciprocal(p), reciprocal(q)
    gamma = 2.0 - 2.0 * ip - d * iq
    if gamma <= 0:
        raise ParameterError(
            f"gamma = 2 - 2/p - d/q = {gamma:.6g} must be positive")
    beta = 49.0 * a0 / (200.0 * d)
    delta = (13.0 / 1568.0 * (98.0 * math.pi) ** (-d / 2.0)
             * d ** (d / 2.0 + 1.0) * math.exp(-d * c0) * unit_ball_volume(d))
    ipp = 1.0 - ip                 # 1/p'
    dq2 = d * iq / 2.0             # d/(2q)
    dpq = d * iq / (2.0 * ipp)     # d p'/(2q), < 1 whenever gamma > 0
    A = ((a0 * c0) ** dq2 * (1.0 - dpq) ** (-ipp)
         * (25.0 / 64.0 * a0 ** 2 / (2.0 * d)) ** (ipp - dq2))
    alpha = min(-math.log1p(-delta) / math.log(4.0), gamma, 0.5)
    K1 = a0 ** dq2 * (1.0 - dpq) ** (-(1.0 - ip))
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta = {delta} out of (0,1)")
    if not 0.0 < alpha <= 0.5:
        raise ParameterError(f"alpha = {alpha} out of (0, 1/2]")
    return ConstantsBundle(d, p, q, a0, c0, gamma, beta, delta, A, alpha, K1)


def alpha_practical(consts: ConstantsBundle) -> float:
    """Larger exponent used for the informational Hoelder rows."""
    return min(consts.gamma, 0.5) / 2.0


def forcing_constant(consts: ConstantsBundle, kernel_prefactor: float) -> float:
    """C_{f,R} = A times the calibrated kernel prefactor."""
    return consts.A * kernel_prefactor


def k2_constant(consts: ConstantsBundle, eps: float, horizon: float,
                moment_prefactor: float) -> float:
    """K2 = max(2 (T/beta)^eps, 2 Ctilde (beta/a0)^(1/2 - eps))."""
    if not 0 < eps < 0.5:
        raise ParameterError("eps must lie in (0, 1/2)")
    return max(2.0 * (horizon / consts.beta) ** eps,
               2.0 * moment_prefactor * (consts.beta / consts.a0) ** (0.5 - eps))


def k3_constant(consts: ConstantsBundle, kernel_prefactor: float) -> float:
    """K3 = 2 C (a0 c0)^(d/2q) (1 - (d/2) p'/q)^(-1/p') beta^(1/p' - d/2q)."""
    ip, iq = reciprocal(consts.p), reciprocal(consts.q)
    ipp = 1.0 - ip
    dq2 = consts.d * iq / 2.0
    dpq = consts.d * iq / (2.0 * ipp)
    return (2.0 * kernel_prefactor * (consts.a0 * consts.c0) ** dq2
            * (1.0 - dpq) ** (-ipp) * consts.beta ** (ipp - dq2))


def iteration_lambda(consts: ConstantsBundle, eps: float) -> float:
    """Per-step contraction Lambda = max(1 - delta/2, 4^-gamma, 4^(2eps-1))."""
    if not 0 < eps < 0.5:
        raise ParameterError("eps must lie in (0, 1/2)")
    return max(1.0 - consts.delta / 2.0, 4.0 ** (-consts.gamma),
               4.0 ** (-1.0 + 2.0 * eps))


def iteration_c1(consts: ConstantsBundle, k2: float, k3: float,
                 c_f1: float, r0: float, eps: float) -> float:
    """C1 = max(1, K2 (4R0)^(1-2eps), K3 (4R0)^gamma, (2/delta) C_f1 R0^gamma)."""
    return max(1.0,
               k2 * (4.0 * r0) ** (1.0 - 2.0 * eps),
               k3 * (4.0 * r0) ** consts.gamma,
               (2.0 / consts.delta) * c_f1 * r0 ** consts.gamma)


def shrunk_radius(consts: ConstantsBundle, r0: float, f_norm: float,
                  w_sup: float, w_init_lip: float) -> float:
    """R_f = R0 (1 + ||f|| / (||w||_inf + ||w_init||_Lip))^(-1/gamma)."""
    denom = w_sup + w_init_lip
    if denom <= 0:
        return r0 if f_norm == 0 else 0.0
    return r0 * (1.0 + f_norm / denom) ** (-1.0 / consts.gamma)


# ---------------------------------------------------------------------------
# rough coefficient and solver


class RoughCoefficient:
    """Coefficient a(t, x) with certified bounds a0 <= a <= c0 a0.

    Accepts a scalar, a Field (time constant), or a Trajectory (piecewise
    constant in time, left frame rule).  Bounds are verified on the data.
    """

    def __init__(self, a, a0: float, c0: float):
        if a0 <= 0 or c0 < 1:
            raise ParameterError("need a0 > 0 and c0 >= 1")
        self.a0 = float(a0)
        self.c0 = float(c0)
        self.a = a
        lo, hi = self._range()
        tol = 1e-12 * max(1.0, hi)
        if lo < a0 - tol or hi > c0 * a0 + tol:
            raise ParameterError(
                f"coefficient range [{lo:.6g}, {hi:.6g}] escapes "
                f"[{a0:.6g}, {c0 * a0:.6g}]")

    def _range(self):
        vals = self.a.values if isinstance(self.a, (Trajectory, Field)) \
            else float(self.a)
        return float(np.min(vals)), float(np.max(vals))


def _active_at(data, t):
    """Active-node values of a Trajectory (piecewise constant in time, left
    frame rule; one row per time for an array t) or a Field at time t; a
    scalar stays a scalar."""
    if isinstance(data, Trajectory):
        k = np.searchsorted(data.times, t + 1e-12, side="right") - 1
        return data.values[np.maximum(k, 0)]        # k < n_frames already
    if isinstance(data, Field):
        return data.values
    return float(data)


def _in_time(data):
    """t -> :func:`_active_at` of ``data``; a scalar or a Field is resolved
    once, a Trajectory looks up its left frame at every call."""
    if isinstance(data, Trajectory):
        return lambda t: _active_at(data, t)
    value = _active_at(data, 0.0)
    return lambda t: value


@dataclass
class RoughSolution:
    traj: Trajectory
    dt: float
    steps: int
    dtw_negative_fraction: float


def solve_rough(w_init: Field, coeff: RoughCoefficient, forcing=None,
                t0: float = 0.0, t_end: float = 1.0,
                dt: float | None = None, n_frames: int = 129) -> RoughSolution:
    """Explicit Euler for a dw/dt = lap w + f from t0 to t_end.

    Stability requires dt <= a0 h^2 / (stencil row max); the default uses a
    0.9 safety factor.  Frames are linearly spaced including both endpoints.
    The fraction of node-steps with discrete dw/dt < -1e-10 is measured, not
    enforced.  A Field or Trajectory coefficient or forcing must live on
    the mask of ``w_init``.
    """
    mask = w_init.mask
    for name, data in (("coefficient", coeff.a), ("forcing", forcing)):
        if isinstance(data, (Field, Trajectory)) and data.mask is not mask:
            raise ParameterError(f"the {name} must live on the mask of w_init")
    limit = coeff.a0 * mask.grid.h ** 2 / mask.stencil_row_max()
    a_at = _in_time(coeff.a)
    f_at = _in_time(0.0 if forcing is None else forcing)
    below = np.empty(mask.active_count, dtype=bool)
    negative = 0

    def rate(k, t, step, U, LU, top, out):
        nonlocal negative
        r = out[0]
        np.add(LU[0], f_at(t), out=r)
        r /= a_at(t)
        np.less(r, -1e-10, out=below)
        negative += int(np.count_nonzero(below))
        return out

    run = march(mask, w_init.values[None], rate, t_end, dt, limit,
                n_frames, t0=t0)
    traj = Trajectory(mask, run.times, run.frames[0])
    return RoughSolution(traj, run.dt, run.n_steps,
                         negative / (run.n_steps * mask.active_count))


# ---------------------------------------------------------------------------
# measured norms over cylinders


def _on_frames(forcing, traj: Trajectory, positive: bool = False):
    """``forcing``, or its positive part, on the frame times of ``traj`` by
    the left frame rule of :func:`_active_at`; a scalar or Field is one
    frame broadcast over every frame time."""
    f = _active_at(forcing, traj.times)
    if positive:
        f = np.maximum(f, 0.0)
    return Trajectory(traj.mask, traj.times,
                      np.broadcast_to(f, traj.values.shape))


def oscillation_decay_check(sol: RoughSolution, cyl: ParabolicCylinder,
                            consts: ConstantsBundle, forcing=None,
                            kernel_prefactor: float | None = None) -> EstimateReport:
    """Quarter-cylinder oscillation against (1 - delta) plus the forcing term.

    The solution is rescaled to [0, 1] on the outer cylinder, so the bound
    reads osc_quarter/osc_full <= 1 - delta + C_{f,R} R^gamma ||f|| / osc_full.
    """
    traj = sol.traj
    if abs(cyl.shape - consts.beta) > 1e-12 * max(1.0, consts.beta):
        raise ParameterError("cylinder shape must equal beta from the bundle")
    osc_full = oscillation(traj, cyl)
    quarter = cyl.shrink(4.0)
    scale = max(1.0, lpq_norm(traj, _INF, _INF))
    if osc_full <= 1e-12 * scale:
        return EstimateReport(
            check="oscillation_decay", lhs=0.0, rhs=1.0 - consts.delta,
            passed=True, params={"R": cyl.radius, "degenerate": True},
            grid=traj.grid.record(), details={"osc_full": osc_full})
    osc_quarter = oscillation(traj, quarter)
    lhs = osc_quarter / osc_full
    rhs = 1.0 - consts.delta
    f_norm = 0.0
    if forcing is not None:
        nodes = traj.mask.ball_nodes(cyl.x0, cyl.radius)
        f_norm = lpq_norm(_on_frames(forcing, traj), consts.p, consts.q,
                          cyl.t0 - cyl.window, cyl.t0, nodes)
        if f_norm > 0:
            if kernel_prefactor is None:
                raise ParameterError(
                    "kernel_prefactor required when the forcing is nonzero")
            rhs += (forcing_constant(consts, kernel_prefactor)
                    * cyl.radius ** consts.gamma * f_norm / osc_full)
    return EstimateReport(
        check="oscillation_decay",
        lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs + 1e-12),
        params={"R": cyl.radius, "beta": consts.beta, "delta": consts.delta,
                "f_norm": f_norm},
        grid=traj.grid.record(),
        details={"osc_full": osc_full, "osc_quarter": osc_quarter,
                 "dtw_negative_fraction": sol.dtw_negative_fraction},
    )


def supremum_bound_check(sol: RoughSolution, consts: ConstantsBundle,
                         w_init: Field, forcing=None,
                         kernel_prefactor: float = 1.0) -> EstimateReport:
    """||w||_inf <= K1 C T^(1 - 1/p - d/(2q)) ||f_+|| + ||w_init||_inf,
    with ||w||_inf measured over the frames in (t0, T] (every frame if
    there is only one)."""
    traj = sol.traj
    horizon = float(traj.times[-1] - traj.times[0])
    t_lo = traj.times[0] if traj.n_frames > 1 else None
    fp_norm = lpq_norm(_on_frames(forcing, traj, positive=True), consts.p,
                       consts.q, traj.times[0], traj.times[-1]) \
        if forcing is not None else 0.0
    expo = 1.0 - reciprocal(consts.p) - consts.d * reciprocal(consts.q) / 2.0
    bound = (consts.K1 * kernel_prefactor * horizon ** expo * fp_norm
             + lp_norm(w_init, _INF))
    measured = lpq_norm(traj, _INF, _INF, t_lo)
    return EstimateReport(
        check="supremum_bound",
        lhs=measured, rhs=bound,
        passed=bool(measured <= bound * (1 + 1e-9) + 1e-12),
        params={"K1": consts.K1, "kernel_prefactor": kernel_prefactor,
                "horizon": horizon, "f_plus_norm": fp_norm},
        grid=traj.grid.record(),
        details={"dtw_negative_fraction": sol.dtw_negative_fraction},
    )


def initial_oscillation_check(sol: RoughSolution, consts: ConstantsBundle,
                              w_init: Field, cyl: ParabolicCylinder,
                              eps: float, moment_prefactor: float,
                              kernel_prefactor: float,
                              forcing=None) -> EstimateReport:
    """osc over (t0, t0 + beta R^2] x B(x0,R) vs K2 R^(1-2eps) Lip + K3 R^gamma ||f||."""
    traj = sol.traj
    horizon = float(traj.times[-1] - traj.times[0])
    k2 = k2_constant(consts, eps, horizon, moment_prefactor)
    k3 = k3_constant(consts, kernel_prefactor)
    t0 = float(traj.times[0])
    idx = traj.window(t0, t0 + cyl.window)
    nodes = traj.mask.ball_nodes(cyl.x0, cyl.radius)
    if idx.size == 0 or not nodes.any():
        raise DomainError("initial cylinder selects nothing")
    block = traj.values[np.ix_(idx, nodes)]
    w0 = w_init.values[nodes]
    lo = min(float(block.min()), float(w0.min()))
    hi = max(float(block.max()), float(w0.max()))
    measured = hi - lo
    lip = lipschitz_norm(w_init)
    f_norm = lpq_norm(_on_frames(forcing, traj), consts.p, consts.q, t0,
                      t0 + cyl.window, nodes) if forcing is not None else 0.0
    bound = (k2 * cyl.radius ** (1.0 - 2.0 * eps) * lip
             + k3 * cyl.radius ** consts.gamma * f_norm)
    return EstimateReport(
        check="initial_oscillation",
        lhs=measured, rhs=bound,
        passed=bool(measured <= bound * (1 + 1e-9) + 1e-12),
        params={"K2": k2, "K3": k3, "eps": eps, "R": cyl.radius},
        grid=traj.grid.record(),
        details={"w_init_lip": lip, "f_norm": f_norm},
    )


def holder_bound_check(sol: RoughSolution, consts: ConstantsBundle,
                       w_init: Field, forcing=None,
                       kernel_prefactor: float = 1.0,
                       moment_prefactor: float = 1.0,
                       r0: float = 1.0, eps: float = 0.25,
                       c_star: float | None = None,
                       c_star_practical: float | None = None,
                       tracer_center=None,
                       max_tracer_steps: int = 5) -> EstimateReport:
    """Interpolation-form Hoelder bound plus the dyadic iteration tracer.

    In calibration mode (c_star None) the constant is fitted as
    measured / core and reported; in verification mode the frozen constant
    gates the check.  The tracer follows osc_k over cylinders shrunk by 4^k
    around the end point and compares against C1 (sup + Lip) Lambda^k.
    A rung is kept only while its radius spans two mesh widths and its
    window two frame gaps; a tracer that keeps none raises DomainError.
    """
    traj = sol.traj
    alpha = consts.alpha
    w_sup = lpq_norm(traj, _INF, _INF)
    lip = lipschitz_norm(w_init)
    if forcing is not None:
        f_norm, fp_norm = (
            lpq_norm(_on_frames(forcing, traj, positive), consts.p, consts.q,
                     traj.times[0], traj.times[-1])
            for positive in (False, True))
    else:
        f_norm = fp_norm = 0.0

    def core(al: float) -> float:
        lo = fp_norm + lip
        hi = f_norm + lip
        if lo <= 0 or hi <= 0:
            return 0.0
        return lo ** (1.0 - al / consts.gamma) * hi ** (al / consts.gamma)

    measured = holder_norm(traj, alpha)
    core_a = core(alpha)
    mode = "calibration" if c_star is None else "verification"
    if c_star is None:
        c_star = measured / core_a if core_a > 0 else 1.0
        passed = True
    else:
        passed = bool(measured <= c_star * core_a * (1 + 1e-9) + 1e-12)
    al_pr = alpha_practical(consts)
    measured_pr = holder_norm(traj, al_pr)
    core_pr = core(al_pr)
    if c_star_practical is None:
        c_star_practical = measured_pr / core_pr if core_pr > 0 else 1.0

    # dyadic iteration tracer around the trajectory end point
    k2 = k2_constant(consts, eps, float(traj.times[-1] - traj.times[0]),
                     moment_prefactor)
    k3 = k3_constant(consts, kernel_prefactor)
    c_f1 = forcing_constant(consts, kernel_prefactor)
    c1 = iteration_c1(consts, k2, k3, c_f1, r0, eps)
    lam = iteration_lambda(consts, eps)
    rf = shrunk_radius(consts, r0, f_norm, w_sup, lip)
    if tracer_center is None:
        coords = traj.mask.node_coords()
        tracer_center = tuple(coords.mean(axis=0))
    amp = w_sup + lip
    tracer = []
    t_end = float(traj.times[-1])
    last_gap = traj.frame_weights()[-1]   # tracer cylinders end at t_end
    for k in range(max_tracer_steps + 1):
        radius = rf * 4.0 ** (-k)
        cyl_k = ParabolicCylinder(t_end, tuple(tracer_center), radius,
                                  consts.beta)
        if radius < 2 * traj.grid.h or cyl_k.window < 2 * last_gap:
            break
        osc_k = oscillation(traj, cyl_k)
        bound_k = c1 * amp * lam ** k
        tracer.append({"k": k, "radius": radius, "osc": osc_k,
                       "bound": bound_k,
                       "pass": bool(osc_k <= bound_k * (1 + 1e-9) + 1e-12)})
    if not tracer:
        raise DomainError("Hoelder tracer keeps no rung: the first cylinder "
                          "is under two mesh widths or two frame gaps")
    tracer_ok = all(row["pass"] for row in tracer)
    return EstimateReport(
        check="holder_bound",
        lhs=measured, rhs=c_star * core_a,
        passed=bool(passed and tracer_ok),
        params={"alpha": alpha, "c_star": c_star, "mode": mode,
                "eps": eps, "r0": r0},
        grid=traj.grid.record(),
        details={
            "core": core_a,
            "alpha_practical": al_pr,
            "measured_practical": measured_pr,
            "c_star_practical": c_star_practical,
            "lambda": lam, "C1": c1, "R_f": rf,
            "tracer": tracer,
            "dtw_negative_fraction": sol.dtw_negative_fraction,
        },
    )

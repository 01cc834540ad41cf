"""Rough-coefficient parabolic solver and the constructive estimate checks.

The equation is a(t,x) dw/dt - lap w = f with measurable a pinched between
a0 and c0*a0.  Everything the estimates promise is spelled out with explicit
constants; this module computes those constants in closed form and compares
them against measured quantities:

* oscillation decay: osc over the quarter cylinder vs (1 - delta) plus a
  forcing term with constant A times a fitted kernel prefactor;
* supremum bound: K1 * C * T^(1 - 1/p - d/(2q)) * ||f_+|| + ||w_init||_inf;
* Hoelder bound with exponent alpha = min(log4(1/(1-delta)), gamma, 1/2);
* initial oscillation: K2 R^(1-2eps) Lip + K3 R^gamma ||f||.

Each check bounds a :class:`RoughSolution` in its time unit a0
(:func:`_unit_problem`), given only the exponents p, q and, for the two
cylinder checks, a ball; it fits each kernel constant it applies itself,
over the span its bound covers.  The solver *measures* the monotonicity
hypothesis dw/dt >= 0 instead of enforcing it: the reported fraction of
node-steps with negative increment is part of every run report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DomainError, ParameterError
from .grid import Field, Trajectory, march, stable_dt
from .kernel import kernel_calibration, moment_calibration
from .norms import (holder_norm, lipschitz_norm, lp_norm, lpq_norm,
                    oscillation, reciprocal)
from .report import EstimateReport, fit_constant

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
        _require_finite("coefficient", a)
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


def _require_finite(name: str, data):
    """Raise ParameterError unless every value of a scalar, Field or
    Trajectory is finite."""
    vals = data.values if isinstance(data, (Trajectory, Field)) else data
    if not np.all(np.isfinite(vals)):
        raise ParameterError(f"the {name} must be finite")


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
    """A solve of a dw/dt - lap w = f, with its coefficient and forcing."""
    traj: Trajectory
    dt: float
    steps: int
    dtw_negative_fraction: float
    coeff: RoughCoefficient
    forcing: object

    @property
    def w_init(self) -> Field:
        return Field(self.traj.mask, self.traj.values[0])   # bit for bit


def solve_rough(w_init: Field, coeff: RoughCoefficient, forcing=None,
                t_end: float = 1.0, dt: float | None = None,
                n_frames: int = 129) -> RoughSolution:
    """Explicit Euler for a dw/dt = lap w + f from 0 to t_end.

    The step limit is :func:`~difflab.grid.stable_dt` at rate 1/a0, that is
    a0 h^2/(row max), and dt defaults to 0.9 of it.  Frames are linearly
    spaced including both endpoints.
    The fraction of node-steps whose increment is below -1e-10 dt (discrete
    dw/dt < -1e-10) is measured, not enforced.  The forcing must be finite
    (the coefficient is checked when it is built), and a Field or
    Trajectory coefficient or forcing must live on the mask of ``w_init``.
    """
    mask = w_init.mask
    for name, data in (("coefficient", coeff.a), ("forcing", forcing)):
        if isinstance(data, (Field, Trajectory)) and data.mask is not mask:
            raise ParameterError(f"the {name} must live on the mask of w_init")
    if forcing is not None:
        _require_finite("forcing", forcing)
    limit = stable_dt(mask, 1.0 / coeff.a0)
    a_at = _in_time(coeff.a)
    f_at = _in_time(0.0 if forcing is None else forcing)
    below = np.empty(mask.active_count, dtype=bool)
    negative = 0

    def prefill(k, t, step, U, V, top):
        np.multiply(f_at(t), step, out=V[0])
        return U

    def finish(k, t, step, U, V):     # V holds dt (L w + f)
        nonlocal negative
        v = V[0]
        v /= a_at(t)
        np.less(v, -1e-10 * step, out=below)
        negative += int(np.count_nonzero(below))
        v += U[0]

    run = march(mask, w_init.values[None], prefill, (1.0,), t_end, dt, limit,
                n_frames, finish=finish)
    traj = Trajectory(mask, run.times, run.frames[0])
    return RoughSolution(traj, run.dt, run.n_steps,
                         negative / (run.n_steps * mask.active_count),
                         coeff, forcing)


# ---------------------------------------------------------------------------
# the checks


def _unit_problem(sol: RoughSolution, p: float, q: float):
    """``sol`` in its time unit a0 and the constants of that problem, the
    one place a0 enters the rough checks.  The change of variable s = t/a0
    turns a dw/dt - lap w = f, a0 <= a <= c0 a0, into (a/a0) dw/ds - lap w
    = f: the frames and a Trajectory forcing move to the times t/a0
    (``sol.coeff`` keeps a0), and the constants to (d, p, q, 1, c0)."""
    traj, f, a0 = sol.traj, sol.forcing, sol.coeff.a0
    if isinstance(f, Trajectory):
        f = Trajectory(f.mask, f.times / a0, f.values)
    traj = Trajectory(traj.mask, traj.times / a0, traj.values)
    consts = explicit_constants(traj.grid.dim, p, q, 1.0, sol.coeff.c0)
    return replace(sol, traj=traj, forcing=f), consts


def _require_window(traj: Trajectory, window: float):
    """Raise DomainError unless a window of this length from frame 0, or
    back from the last frame, lies within the frame times (with the slack of
    Trajectory.window)."""
    if window > traj.times[-1] - traj.times[0] + 1e-9 * max(1.0, window):
        raise DomainError(f"the cylinder window beta R^2 = {window:.6g} is "
                          f"longer than the run, in the time unit a0")


def _forcing_norm(sol: RoughSolution, consts: ConstantsBundle, t_lo, t_hi,
                  nodes=None, positive: bool = False) -> float:
    """L^p L^q norm (``consts``) of the forcing of ``sol``, or of its
    positive part, over (t_lo, t_hi] and ``nodes`` on its frame times by the
    left frame rule of :func:`_active_at` (a scalar or Field broadcast over
    every frame); 0 for no forcing."""
    if sol.forcing is None:
        return 0.0
    f = _active_at(sol.forcing, sol.traj.times)
    if positive:
        f = np.maximum(f, 0.0)
    frames = Trajectory(sol.traj.mask, sol.traj.times,
                        np.broadcast_to(f, sol.traj.values.shape))
    return lpq_norm(frames, consts.p, consts.q, t_lo, t_hi, nodes)


def oscillation_decay_check(sol: RoughSolution, p: float, q: float,
                            center, radius: float) -> EstimateReport:
    """Quarter-cylinder oscillation against (1 - delta) plus the forcing term.

    The cylinder (T - beta R^2, T] x B(center, R) ends at the last frame T.
    The solution is rescaled to [0, 1] on it, so the bound reads
    osc_quarter/osc_full <= 1 - delta + C_{f,R} R^gamma ||f|| / osc_full
    (+ 1e-12 of float slack in the printed rhs), with C_{f,R} = A times the
    kernel prefactor fitted over beta R^2; details print C_{f,R}.
    """
    sol, consts = _unit_problem(sol, p, q)
    traj = sol.traj
    window = consts.beta * radius ** 2
    _require_window(traj, window)
    t_end = traj.times[-1]
    ball = traj.mask.ball_nodes(center, radius)
    osc_full = oscillation(traj, traj.window(t_end - window, t_end), ball)
    scale = max(1.0, lpq_norm(traj, _INF, _INF))
    if osc_full <= 1e-12 * scale:
        return EstimateReport(
            check="oscillation_decay", lhs=0.0, rhs=1.0 - consts.delta,
            params={"R": radius, "degenerate": True,
                    "time_unit": sol.coeff.a0},
            grid=traj.grid.record(), details={"osc_full": osc_full})
    osc_quarter = oscillation(traj, traj.window(t_end - window / 16, t_end),
                              traj.mask.ball_nodes(center, radius / 4.0))
    lhs = osc_quarter / osc_full
    rhs = 1.0 - consts.delta
    details = {"osc_full": osc_full, "osc_quarter": osc_quarter,
               "dtw_negative_fraction": sol.dtw_negative_fraction}
    f_norm = _forcing_norm(sol, consts, t_end - window, t_end, ball)
    if f_norm > 0:
        c_f = details["forcing_constant"] = forcing_constant(
            consts, kernel_calibration(traj.mask, window, q))
        rhs += c_f * radius ** consts.gamma * f_norm / osc_full
    return EstimateReport(
        check="oscillation_decay",
        lhs=lhs, rhs=rhs + 1e-12,
        params={"R": radius, "beta": consts.beta, "delta": consts.delta,
                "f_norm": f_norm, "time_unit": sol.coeff.a0},
        grid=traj.grid.record(), details=details,
    )


def supremum_bound_check(sol: RoughSolution, p: float,
                         q: float) -> EstimateReport:
    """||w||_inf <= K1 C T^(1 - 1/p - d/(2q)) ||f_+|| + ||w_init||_inf,
    with ||w||_inf measured over the frames in (t0, T] (every frame if
    there is only one) and C, fitted over T - t0 when ||f_+|| > 0; the
    printed rhs is bound (1 + 1e-9) + 1e-12."""
    sol, consts = _unit_problem(sol, p, q)
    traj = sol.traj
    horizon = float(traj.times[-1] - traj.times[0])
    t_lo = traj.times[0] if traj.n_frames > 1 else None
    fp_norm = _forcing_norm(sol, consts, traj.times[0], traj.times[-1],
                            positive=True)
    expo = 1.0 - reciprocal(consts.p) - consts.d * reciprocal(consts.q) / 2.0
    params = {"K1": consts.K1, "horizon": horizon, "f_plus_norm": fp_norm,
              "time_unit": sol.coeff.a0}
    bound = lp_norm(sol.w_init, _INF)
    if fp_norm > 0:
        c = params["kernel_prefactor"] = kernel_calibration(traj.mask,
                                                            horizon, q)
        bound = consts.K1 * c * horizon ** expo * fp_norm + bound
    measured = lpq_norm(traj, _INF, _INF, t_lo)
    return EstimateReport(
        check="supremum_bound",
        lhs=measured, rhs=bound * (1 + 1e-9) + 1e-12,
        params=params, grid=traj.grid.record(),
        details={"dtw_negative_fraction": sol.dtw_negative_fraction},
    )


def initial_oscillation_check(sol: RoughSolution, p: float, q: float,
                              center, radius: float,
                              eps: float) -> EstimateReport:
    """osc over [t0, t0 + beta R^2] x B(center, R), t0 the first frame, vs
    K2 R^(1-2eps) Lip + K3 R^gamma ||f||, as bound (1 + 1e-9) + 1e-12, the
    moment fit of K2 over T - t0 and the kernel fit of K3 over beta R^2."""
    sol, consts = _unit_problem(sol, p, q)
    traj = sol.traj
    t0 = float(traj.times[0])
    horizon = traj.times[-1] - t0
    window = consts.beta * radius ** 2
    _require_window(traj, window)
    idx = traj.window(t0, t0 + window)
    if idx.size == 0:
        raise DomainError("the initial window holds no frame after frame 0")
    nodes = traj.mask.ball_nodes(center, radius)
    measured = oscillation(traj, np.r_[0, idx], nodes)  # w_init is frame 0
    lip = lipschitz_norm(sol.w_init)
    f_norm = _forcing_norm(sol, consts, t0, t0 + window, nodes)
    k2 = k2_constant(consts, eps, horizon,
                     moment_calibration(traj.mask, horizon, eps))
    k3 = k3_constant(consts, kernel_calibration(traj.mask, window, q))
    bound = (k2 * radius ** (1.0 - 2.0 * eps) * lip
             + k3 * radius ** consts.gamma * f_norm)
    return EstimateReport(
        check="initial_oscillation",
        lhs=measured, rhs=bound * (1 + 1e-9) + 1e-12,
        params={"K2": k2, "K3": k3, "eps": eps, "R": radius,
                "time_unit": sol.coeff.a0},
        grid=traj.grid.record(),
        details={"w_init_lip": lip, "f_norm": f_norm},
    )


def holder_bound_check(sol: RoughSolution, p: float, q: float,
                       c_star: float | None = None) -> EstimateReport:
    """Interpolation-form Hoelder bound [w]_alpha <= C* core, with core =
    (||f_+|| + Lip)^(1 - alpha/gamma) (||f|| + Lip)^(alpha/gamma), gated by
    :func:`~difflab.report.fit_constant` plus 1e-12 (C* fitted when c_star
    is None).
    """
    sol, consts = _unit_problem(sol, p, q)
    traj = sol.traj
    alpha, gamma = consts.alpha, consts.gamma
    lip = lipschitz_norm(sol.w_init)
    f_norm, fp_norm = (
        _forcing_norm(sol, consts, traj.times[0], traj.times[-1],
                      positive=positive) for positive in (False, True))
    lo, hi = fp_norm + lip, f_norm + lip        # ||f_+|| <= ||f||
    core = (lo ** (1.0 - alpha / gamma) * hi ** (alpha / gamma)
            if lo > 0 else 0.0)
    measured = holder_norm(traj, alpha)
    mode = "calibration" if c_star is None else "verification"
    c_star, rhs = fit_constant(measured, core, c_star)
    return EstimateReport(
        check="holder_bound",
        lhs=measured, rhs=rhs + 1e-12,
        params={"alpha": alpha, "c_star": c_star, "mode": mode,
                "time_unit": sol.coeff.a0},
        grid=traj.grid.record(),
        details={"core": core,
                 "dtw_negative_fraction": sol.dtw_negative_fraction},
    )

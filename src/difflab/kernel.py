"""Discrete Neumann heat kernel: evolution, decay norms, Gaussian comparison.

The kernel is started as a discrete delta (1/h^d at one node) and evolved by
explicit Euler.  On a pure-Neumann mask the node-quadrature mass stays 1 to
roundoff at every frame.  The decay reports fit log-log slopes of
||Gamma(t)||_p over the intermediate regime

    4 h^2  <=  t  <=  t_mix,    t_mix = first t with ||Gamma||_inf <= 2/|Omega|,

i.e. after the delta has been resolved and before the domain has mixed;
targets are -d/(2 p') for the L^p norm and 1/2 for the first moment.

The lower-bound check compares the kernel on a ball-with-graph-boundary
domain against the whole-space Gaussian minus its running supremum at radius
7R/10, the comparison being meaningful for t <= 49 R^2 / (200 d).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ParameterError, PreconditionError, SamplingError,
                     SolverError)
from .grid import (DomainMask, GridSpec, Trajectory, graph_domain_mask, march,
                   stable_dt)
from .norms import RecentCache, reciprocal, space_norm
from .report import EstimateReport

_INF = float("inf")


# ---------------------------------------------------------------------------
# whole-space reference


def gaussian_heat(d: int, t, r):
    """Whole-space heat kernel value at distance r and time t."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    return (4.0 * math.pi * t) ** (-d / 2.0) * np.exp(-(r ** 2) / (4.0 * t))


def gaussian_running_sup(d: int, t, r):
    """sup over s in (0, t] of the Gaussian at distance r.

    The maximiser is s* = r^2/(2d): before s* the value still grows in time,
    after s* it is frozen at the peak.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    s_star = r ** 2 / (2.0 * d)
    t_eff = np.minimum(t, s_star)
    return gaussian_heat(d, t_eff, r)


def gaussian_moment_1d(t):
    """First absolute moment of the 1d whole-space kernel: 2 sqrt(t/pi)."""
    return 2.0 * np.sqrt(np.asarray(t, dtype=float) / math.pi)


# ---------------------------------------------------------------------------
# kernel evolution


class KernelField(Trajectory):
    """Kernel trajectory plus the mesh point of the node it was seeded at."""

    def __init__(self, mask, times, values, source_point):
        super().__init__(mask, times, values)
        self.source_point = np.asarray(source_point, dtype=float)


def kernel_evolve(mask: DomainMask, source, t_end: float,
                  dt: float | None = None, n_frames: int = 64,
                  record_times=None) -> KernelField:
    """Evolve the discrete delta at the active node nearest the point
    ``source`` to time ``t_end``.

    Frames are recorded geometrically in time unless ``record_times`` is
    given.  ``dt`` defaults to 0.9 of the step limit
    :func:`~difflab.grid.stable_dt`, h^2/(row max), and may not exceed
    it.  Raises on fewer than 2 geometric frames or an empty
    ``record_times`` (either would drop the final state), a dt that is not
    positive and finite or is above the limit, a non-finite ``t_end``, mass
    drift or negative undershoot beyond roundoff.
    """
    if record_times is None and n_frames < 2:
        raise ParameterError(
            f"need at least 2 frames (start and end), got {n_frames}")
    if record_times is not None and len(record_times) == 0:
        raise ParameterError("record_times is empty")
    grid = mask.grid
    d = grid.dim
    source = mask.nearest_node(source)
    mesh_point = [grid.origin[ax] + grid.h * source[ax] for ax in range(d)]

    def frames(step):
        if record_times is None:
            return np.geomspace(max(2 * step, 1e-12), t_end, n_frames)
        return record_times

    hd = grid.h ** d
    full = np.zeros(grid.n)
    full[source] = 1.0 / hd

    def prefill(k, t, step, U, V, top):
        np.copyto(V, U)
        return U

    run = march(mask, mask.gather(full)[None], prefill, (1.0,), t_end, dt,
                stable_dt(mask), frames)
    values = run.frames[0]

    # positivity and mass, frame by frame
    last_mass = mass0 = hd * values[0].sum()
    pure_neumann = not mask.dirichlet.any()
    for k, vals in zip(run.steps[1:], values[1:]):
        m = float(np.min(vals))
        if m < -1e-12 / hd:
            raise SolverError(f"kernel negative undershoot {m:.3e} at step {k}")
        mass = hd * float(vals.sum())
        if pure_neumann and abs(mass - mass0) > 1e-9:
            raise SolverError(f"kernel mass drift {mass - mass0:.3e} at step {k}")
        if not pure_neumann and mass > last_mass + 1e-12:
            raise SolverError(
                f"kernel mass increased on a Dirichlet mask at step {k}")
        last_mass = mass
    return KernelField(mask, run.times, values, mesh_point)


# ---------------------------------------------------------------------------
# decay reports


def domain_volume(mask: DomainMask) -> float:
    return mask.active_count * mask.grid.h ** mask.grid.dim


def intermediate_regime(kern: KernelField) -> np.ndarray:
    """Frame indices with 4h^2 <= t <= t_mix (first sup <= 2/|Omega|)."""
    h = kern.grid.h
    t = kern.times
    sup = space_norm(kern.values, kern.grid, _INF)
    t_lo = 4.0 * h * h
    vol = domain_volume(kern.mask)
    mixed = np.nonzero((sup <= 2.0 / vol) & (t > 0))[0]
    t_hi = t[mixed[0]] if mixed.size else t[-1]
    idx = np.nonzero((t >= t_lo) & (t <= t_hi))[0]
    if idx.size < 10 or t[idx[-1]] < 10.0 * t[idx[0]]:
        raise SamplingError(
            f"intermediate regime [{t_lo:.3e}, {t_hi:.3e}] holds "
            f"{idx.size} frames; need >= 10 spanning a decade")
    return idx


def fit_power(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares fit y ~ C t^slope in log-log; returns (slope, C)."""
    lt = np.log(t)
    ly = np.log(np.maximum(y, 1e-300))
    slope, intercept = np.polyfit(lt, ly, 1)
    return float(slope), float(math.exp(intercept))


def kernel_norm_report(kern: KernelField, p_list=(1.0, 2.0, _INF),
                       tol: float = 0.1) -> EstimateReport:
    """Fit the decay of ||Gamma(t)||_p over the intermediate regime.

    Target slope is -d/(2 p'); p = 1 targets 0 (mass), p = inf targets -d/2.
    """
    d = kern.grid.dim
    idx = intermediate_regime(kern)
    t = kern.times[idx]
    rows = []
    worst = 0.0
    for p in p_list:
        series = space_norm(kern.values[idx], kern.grid, p)
        slope, const = fit_power(t, series)
        pp = reciprocal(1.0 - reciprocal(p))
        target = 0.0 if pp == _INF else -d / (2.0 * pp)
        err = abs(slope - target)
        worst = max(worst, err)
        rows.append({
            "p": p,
            "slope": slope,
            "target_slope": target,
            "fitted_constant": const,
            "regime": [float(t[0]), float(t[-1])],
            "pass": bool(err <= tol),
        })
    return EstimateReport(
        check="kernel_decay_slopes",
        lhs=worst, rhs=tol,
        params={"p_list": list(p_list)},
        grid=kern.grid.record(),
        details={"rows": rows},
    )


def kernel_moment(kern: KernelField) -> np.ndarray:
    """First moment m(t) = integral |x - y| Gamma(t, x) dx per frame."""
    coords = kern.mask.node_coords()
    dist = np.linalg.norm(coords - kern.source_point, axis=1)
    hd = kern.grid.h ** kern.grid.dim
    return hd * kern.values @ dist


def moment_report(kern: KernelField, tol: float = 0.05) -> EstimateReport:
    """Fit m(t) ~ C t^s over the intermediate regime and gate
    |s - 1/2| <= tol."""
    idx = intermediate_regime(kern)
    t = kern.times[idx]
    m = kernel_moment(kern)[idx]
    slope, const = fit_power(t, m)
    err = abs(slope - 0.5)
    return EstimateReport(
        check="kernel_moment_slope",
        lhs=err, rhs=tol,
        params={"tol": tol},
        grid=kern.grid.record(),
        details={"slope": slope, "target_slope": 0.5,
                 "fitted_constant": const,
                 "regime": [float(t[0]), float(t[-1])]},
    )


def fitted_prefactor(kern: KernelField, p: float) -> float:
    """Smallest C with ||Gamma(t)||_p <= C t^(-d/(2 p')) on the frames."""
    d = kern.grid.dim
    pp = reciprocal(1.0 - reciprocal(p))
    expo = 0.0 if pp == _INF else d / (2.0 * pp)
    sel = kern.times > 0
    series = space_norm(kern.values[sel], kern.grid, p)
    return float(np.max(series * kern.times[sel] ** expo))


def fitted_moment_prefactor(kern: KernelField, eps: float) -> float:
    """Smallest C with m(t) <= C t^(1/2 - eps) on the frames."""
    if not 0 < eps < 0.5:
        raise ParameterError(f"eps must lie in (0, 1/2), got {eps}")
    sel = kern.times > 0
    m = kernel_moment(kern)[sel]
    return float(np.max(m / kern.times[sel] ** (0.5 - eps)))


# the 8 most recent fits, keyed by the exact active and Dirichlet sets, h,
# origin, span, exponent and fit: one geometry fits once, and a hit returns
# the number a miss would compute, so caching cannot break determinism
_CALIBRATIONS = RecentCache(8)


def _fit_from_center(mask: DomainMask, t_end: float, fit, exponent: float):
    """``fit`` of the kernel from the center of ``mask``, to ``t_end``."""
    grid = mask.grid
    key = (grid.h, *grid.origin, t_end, exponent, fit is fitted_prefactor)
    return _CALIBRATIONS.get(
        (mask.active, mask.dirichlet, np.array(key, dtype=float)),
        lambda: fit(kernel_evolve(mask, grid.center, t_end, n_frames=64),
                    exponent))


def kernel_calibration(mask: DomainMask, t_end: float, q: float) -> float:
    """Fitted decay prefactor sup_t ||G(t)||_{q'} t^{d/(2q)} of the Neumann
    kernel from the center of ``mask``, over its frames up to ``t_end``."""
    return _fit_from_center(mask, t_end, fitted_prefactor,
                            reciprocal(1.0 - reciprocal(q)))


def moment_calibration(mask: DomainMask, t_end: float, eps: float) -> float:
    """Fitted moment prefactor sup_t m(t) t^(eps - 1/2) of the same kernel
    (:func:`fitted_moment_prefactor`), over its frames up to ``t_end``."""
    return _fit_from_center(mask, t_end, fitted_moment_prefactor, eps)


# ---------------------------------------------------------------------------
# mixed-boundary geometry and the Gaussian lower bound


def admissible_graph_domain(grid: GridSpec, radius: float,
                            phi) -> DomainMask:
    """Build the ball-cut-by-graph mask at the origin
    (:func:`~difflab.grid.graph_domain_mask`), enforcing the flatness
    constraints.

    Requires sup phi <= R/(11 d) and a difference-quotient Lipschitz bound
    |phi(x') - phi(y')| <= |x' - y'|/(11 d) on a fine sample.
    """
    d = grid.dim
    bound = radius / (11.0 * d)
    if callable(phi):
        if d == 1:
            vals = np.asarray(phi(np.zeros((1, 0)))).ravel()
            sup_phi = float(np.max(np.abs(vals)))
            lip = 0.0
        else:
            side = np.linspace(-radius, radius, 41)
            pts = np.stack(np.meshgrid(*([side] * (d - 1)), indexing="ij"),
                           axis=-1).reshape(-1, d - 1)
            vals = np.asarray(phi(pts), dtype=float).reshape(-1)
            sup_phi = float(np.max(np.abs(vals)))
            step = side[1] - side[0]
            lip = 0.0
            shape = (41,) * (d - 1)
            grid_vals = vals.reshape(shape)
            for ax in range(d - 1):
                dv = np.abs(np.diff(grid_vals, axis=ax)) / step
                if dv.size:
                    lip = max(lip, float(dv.max()))
    else:
        sup_phi = abs(float(phi))
        lip = 0.0
    if sup_phi > bound * (1 + 1e-12):
        raise PreconditionError(
            f"sup|phi| = {sup_phi:.3e} exceeds R/(11d) = {bound:.3e}")
    if lip > 1.0 / (11.0 * d) * (1 + 1e-9):
        raise PreconditionError(
            f"Lip(phi) = {lip:.3e} exceeds 1/(11d) = {1.0 / (11 * d):.3e}")
    return graph_domain_mask(grid, radius, phi)


def source_ball_center(radius: float, center, dim: int) -> np.ndarray:
    """Center of the admissible source ball: c + (R/5) e_d."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    out = c.copy()
    out[-1] += radius / 5.0
    return out


def gaussian_lower_bound_check(kern: KernelField, radius: float,
                               slack: float = 0.05) -> EstimateReport:
    """Check Gamma >= (1 - slack) Psi - 1e-8 on the sampled frames.

    Psi(t, x) = Phi(t, |x - y|) - sup_{s<=t} Phi(s, 7R/10) with the source
    y, which must lie in B((R/5) e_d, R/10) of the domain at the origin;
    only frames with max(6 h^2, t_cap/10) <= t <= t_cap = 49 R^2/(200 d)
    count: the lower end skips the first few h^2 where the discrete delta
    has not resolved yet.  The lhs is max (Psi - Gamma - 1e-8)/Psi over
    the points with Psi > 0, floored at 0, and the rhs ``slack``.
    """
    grid = kern.grid
    d = grid.dim
    t_cap = 49.0 * radius ** 2 / (200.0 * d)
    t_min = max(6.0 * grid.h ** 2, 0.1 * t_cap)
    y = kern.source_point
    u_center = source_ball_center(radius, None, d)
    if np.linalg.norm(y - u_center) > radius / 10.0 + grid.h:
        raise PreconditionError(
            "kernel source lies outside the admissible ball B(R/5 e_d, R/10)")
    sel = np.nonzero((kern.times >= t_min) &
                     (kern.times <= t_cap * (1 + 1e-12)))[0]
    if sel.size == 0:
        raise SamplingError("no recorded frames inside the comparison window")
    coords = kern.mask.node_coords()
    dist = np.linalg.norm(coords - y, axis=1)
    barrier_r = 0.7 * radius
    deficit = 0.0
    violations = 0
    n_checked = 0
    for k in sel:
        t = kern.times[k]
        psi = gaussian_heat(d, t, dist) - gaussian_running_sup(d, t, barrier_r)
        gam = kern.values[k]
        pos = psi > 0
        n_checked += int(pos.sum())
        if pos.any():
            rel = (psi[pos] - gam[pos] - 1e-8) / psi[pos]
            deficit = max(deficit, float(rel.max()))
            violations += int(np.sum(rel > slack))
    return EstimateReport(
        check="gaussian_lower_bound",
        lhs=deficit, rhs=slack,
        params={"radius": radius, "slack": slack,
                "t_window": [float(kern.times[sel[0]]), float(t_cap)]},
        grid=grid.record(),
        details={"violations": violations, "points_checked": n_checked,
                 "frames_checked": int(sel.size)},
    )

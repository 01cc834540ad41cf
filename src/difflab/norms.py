"""Discrete norms: Lebesgue, mixed space-time, oscillation, parabolic Hoelder.

Quadrature is the plain node sum times h^d (and dt in time), so constants
carry an O(h) bias on boxes; the estimates calibrated against these norms use
the same quadrature throughout, which is what matters for the checks.

The parabolic Hoelder seminorm uses the quotient

    |w(t,x) - w(s,y)| / ( |t-s|^(alpha/2) + |x-y|^alpha ).

Pairs are enumerated exhaustively when the pair count fits the budget,
otherwise sampled deterministically, stratified by space-time distance decade
so both the near and the far regime are represented.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .errors import DomainError, ParameterError, SamplingError
from .grid import Field, ParabolicCylinder, Trajectory

_INF = float("inf")
_BLOCK_PAIRS = 1 << 16      # pairs evaluated per block of pair_quotient_max


def reciprocal(p: float) -> float:
    """1/p for an exponent, with 1/inf = 0 and 1/0 = inf; the conjugate
    exponent p' is reciprocal(1 - reciprocal(p))."""
    p = float(p)
    if p == _INF:
        return 0.0
    return _INF if p == 0.0 else 1.0 / p


def _check_exponent(p: float, name: str = "p") -> float:
    p = float(p)
    if p != _INF and p < 1:
        raise ParameterError(f"{name} must be >= 1 or inf, got {p}")
    return p


def lp_norm(field: Field, p: float) -> float:
    """L^p node-quadrature norm; p = inf gives the max norm."""
    p = _check_exponent(p)
    v = field.values
    if p == _INF:
        return float(np.max(np.abs(v)))
    hd = field.grid.h ** field.grid.dim
    return float((hd * np.sum(np.abs(v) ** p)) ** (1.0 / p))


def lpq_norm(traj: Trajectory, p: float, q: float,
             t_lo: float | None = None, t_hi: float | None = None) -> float:
    """L^p in time of the L^q space norm, rectangle rule with weight dt."""
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    if t_lo is None and t_hi is None:
        idx = np.arange(traj.n_frames)
    else:
        lo = traj.times[0] - 1.0 if t_lo is None else t_lo
        hi = traj.times[-1] + 1.0 if t_hi is None else t_hi
        idx = traj.window(lo, hi)
    if idx.size == 0:
        raise DomainError("no frames in the requested time window")
    hd = traj.grid.h ** traj.grid.dim
    vals = np.abs(traj.values[idx])
    if q == _INF:
        space = vals.max(axis=1)
    else:
        space = (hd * np.sum(vals ** q, axis=1)) ** (1.0 / q)
    if p == _INF:
        return float(space.max())
    dt = traj.dt if traj.n_frames > 1 else 0.0
    return float((dt * np.sum(space ** p)) ** (1.0 / p))


def oscillation(traj: Trajectory, cyl: ParabolicCylinder) -> float:
    """max - min over the backward cylinder (t0 - shape R^2, t0] x B(x0, R)."""
    idx = traj.window(cyl.t0 - cyl.window, cyl.t0)
    if idx.size == 0:
        raise DomainError("cylinder time window contains no frames")
    nodes = traj.mask.ball_nodes(cyl.x0, cyl.radius)
    if not nodes.any():
        raise DomainError("cylinder ball contains no active nodes")
    block = traj.values[np.ix_(idx, nodes)]
    return float(block.max() - block.min())


# ---------------------------------------------------------------------------
# parabolic Hoelder norm


def _pair_quotient(dw, dt_abs, dx, alpha):
    """dw / (dt^(alpha/2) + dx^alpha), zero where the two points coincide;
    dt_abs None means no time offset."""
    dist = dx ** alpha
    if dt_abs is not None:
        dist = dt_abs ** (alpha / 2.0) + dist
    return np.divide(dw, dist, out=np.zeros_like(dw), where=dist > 1e-300)


def pair_quotient_max(X: np.ndarray, W: np.ndarray, alpha: float,
                      T: np.ndarray | None = None) -> float:
    """Largest Hoelder quotient over all point pairs:

        max_{i<j} |W_i - W_j| / (|T_i - T_j|^(alpha/2) + |X_i - X_j|^alpha)

    with X of shape (n, dim); T None is the spatial quotient (every time
    offset zero).  Row blocks sweep the upper triangle and squared
    distances accumulate axis by axis, so no (block, n, dim) array exists.
    """
    n = W.size
    rows = max(1, _BLOCK_PAIRS // max(n, 1))
    best = 0.0
    for lo in range(0, n - 1, rows):
        hi = min(lo + rows, n - 1)
        d2 = np.zeros((hi - lo, n - lo - 1))
        for ax in range(X.shape[1]):
            diff = X[lo:hi, None, ax] - X[None, lo + 1:, ax]
            d2 += diff * diff
        dt_abs = None if T is None else np.abs(T[lo:hi, None] - T[None, lo + 1:])
        dw = np.abs(W[lo:hi, None] - W[None, lo + 1:])
        best = max(best, float(_pair_quotient(dw, dt_abs, np.sqrt(d2),
                                              alpha).max()))
    return best


def _sampled_quotient(traj: Trajectory, alpha: float, max_pairs: int,
                      seed: int) -> float:
    mask = traj.mask
    grid = traj.grid
    rng = np.random.default_rng(seed)
    coords = mask.node_coords()
    times = traj.times
    n_frames, n_nodes = traj.values.shape

    # active-node lookup: full-grid index -> row in the active arrays
    lookup = -np.ones(grid.n, dtype=np.int64)
    lookup[mask.active] = np.arange(n_nodes)

    best = 0.0

    # guaranteed local pairs: axis neighbours in the last frame and
    # same-node consecutive frames
    w = traj.values
    if n_frames > 1:
        dw = np.abs(np.diff(w, axis=0)).max(axis=1)
        q = dw / (traj.dt ** (alpha / 2.0))
        best = max(best, float(q.max()))
    # the Laplacian's off-diagonal entries are exactly the face pairs
    i, j = sparse.triu(mask.laplacian_matrix(), 1).nonzero()
    if i.size:
        dval = np.abs(w[-1][j] - w[-1][i])
        best = max(best, float(dval.max()) / grid.h ** alpha)

    # stratified random pairs across space-time distance decades
    t_span = max(times[-1] - times[0], 0.0)
    rho_min = min(grid.h, math.sqrt(traj.dt)) if n_frames > 1 else grid.h
    rho_max = math.sqrt(((coords.max(axis=0) - coords.min(axis=0)) ** 2).sum())
    rho_max = max(rho_max + math.sqrt(t_span), 2 * rho_min)
    n_bins = 8
    edges = np.geomspace(rho_min, rho_max, n_bins + 1)
    budget = max(max_pairs // n_bins, 1000)
    origin = np.asarray(grid.origin)

    for b in range(n_bins):
        m = 2 * budget
        i = rng.integers(0, n_frames * n_nodes, size=m)
        fi, ni = i // n_nodes, i % n_nodes
        r = rng.uniform(edges[b], edges[b + 1], size=m)
        s = rng.uniform(0.0, 1.0, size=m)
        d_space = s * r
        d_time = ((1.0 - s) * r) ** 2 * rng.choice([-1.0, 1.0], size=m)
        direction = rng.normal(size=(m, grid.dim))
        direction /= np.maximum(np.linalg.norm(direction, axis=1), 1e-30)[:, None]
        xj = coords[ni] + direction * d_space[:, None]
        tj = times[fi] + d_time
        fj = np.rint((tj - times[0]) / traj.dt).astype(np.int64) \
            if n_frames > 1 else np.zeros(m, dtype=np.int64)
        fj = np.clip(fj, 0, n_frames - 1)
        ij = np.rint((xj - origin) / grid.h).astype(np.int64)
        ok = np.all((ij >= 0) & (ij < np.asarray(grid.n)), axis=1)
        nj = np.full(m, -1, dtype=np.int64)
        if ok.any():
            nj[ok] = lookup[tuple(ij[ok].T)]
        ok &= nj >= 0
        if not ok.any():
            continue
        fi, ni, fj, nj = fi[ok], ni[ok], fj[ok], nj[ok]
        dt_abs = np.abs(times[fj] - times[fi])
        dx = np.linalg.norm(coords[nj] - coords[ni], axis=1)
        dw = np.abs(traj.values[fj, nj] - traj.values[fi, ni])
        q = _pair_quotient(dw, dt_abs, dx, alpha)
        if q.size:
            best = max(best, float(q.max()))
    return best


def holder_norm(traj: Trajectory, alpha: float,
                max_pairs: int = 1_000_000, seed: int = 7) -> float:
    """Parabolic C^alpha norm: sup |w| plus the sup of the pair quotient."""
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if max_pairs < 1000:
        raise SamplingError("pair budget too small to be meaningful")
    n_points = traj.n_frames * traj.mask.active_count
    sup = float(np.max(np.abs(traj.values)))
    if n_points * (n_points - 1) // 2 <= max_pairs:
        n_frames, n_nodes = traj.values.shape
        T = np.repeat(traj.times, n_nodes)
        X = np.tile(traj.mask.node_coords(), (n_frames, 1))
        semi = pair_quotient_max(X, traj.values.reshape(-1), alpha, T)
    else:
        semi = _sampled_quotient(traj, alpha, max_pairs, seed)
    return sup + semi


def holder_norm_field(field: Field, alpha: float,
                      max_pairs: int = 1_000_000, seed: int = 7) -> float:
    """Spatial C^alpha norm of a single field (one-frame trajectory)."""
    traj = Trajectory(field.mask, np.array([0.0]), field.values[None, :])
    return holder_norm(traj, alpha, max_pairs=max_pairs, seed=seed)


def lipschitz_norm(field: Field, max_pairs: int = 1_000_000,
                   seed: int = 7) -> float:
    """sup |w| + Lipschitz constant over node pairs (alpha = 1)."""
    return holder_norm_field(field, 1.0, max_pairs=max_pairs, seed=seed)

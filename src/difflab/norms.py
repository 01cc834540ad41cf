"""Discrete norms: Lebesgue, mixed space-time, oscillation, Hoelder.

Every Lebesgue and Hoelder norm a check reports is computed here.  One
routine, space_norm, gives the L^q norm (h^d times the node sum of |v|^q,
to the 1/q) of a field or of each frame, over a node subset if given;
lpq_norm integrates it over the frame gaps (left-rectangle rule).  The
O(h) bias on boxes is shared by every estimate calibrated against it.

The Hoelder seminorm is the largest quotient

    |w(t,x) - w(s,y)| / ( |t-s|^(alpha/2) + |x-y|^alpha )

over every pair of space-time nodes (every pair of nodes of one field for
holder_norm_field, whose alpha = 0 is the sup norm), computed exactly by
branch-and-bound over block pairs (pair_quotient_max).  The block tree
(leaves of at most _LEAF = 8 points) depends on the points only; the trees
of the last _TREES_KEPT = 8 point sets are kept in a RecentCache, matched
by their exact bytes, so repeated calls on one node set with new values
skip the build.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ParameterError
from .grid import Field, GridSpec, ParabolicCylinder, Trajectory

_INF = float("inf")
_LEAF = 8                   # points per leaf of the pair_quotient_max tree
_LEAF_PAIRS = 64            # leaf pairs evaluated per batch


def reciprocal(p: float) -> float:
    """1/p for an exponent, with 1/inf = 0 and 1/0 = inf; the conjugate
    exponent p' is reciprocal(1 - reciprocal(p))."""
    p = float(p)
    if p == _INF:
        return 0.0
    return _INF if p == 0.0 else 1.0 / p


def _check_exponent(p: float, name: str) -> float:
    p = float(p)
    if p != _INF and p < 1:
        raise ParameterError(f"{name} must be >= 1 or inf, got {p}")
    return p


def space_norm(values: np.ndarray, grid: GridSpec, q: float,
               nodes: np.ndarray | None = None):
    """(h^d sum |v|^q)^(1/q) over the last axis of ``values`` and the
    boolean ``nodes`` (all by default); max |v| for q = inf, 0 over no
    nodes.  One field gives a scalar (scalar ``**``), a frame matrix one
    norm per frame (array ``**``, which may differ in the last ulp).  q is
    not checked here; lp_norm and lpq_norm check their exponents."""
    if nodes is not None:
        # compress keeps each frame's nodes contiguous, so every frame is
        # summed pairwise; a fancy index would sum across frames in order
        values = np.compress(nodes, values, axis=-1)
    vals = np.abs(values)
    if q == _INF:
        return vals.max(axis=-1, initial=0.0)
    hd = grid.h ** grid.dim
    return (hd * np.sum(vals ** q, axis=-1)) ** (1.0 / q)


def lp_norm(field: Field, p: float, nodes: np.ndarray | None = None) -> float:
    """L^p norm (space_norm) of one field over ``nodes``, all active nodes
    by default; p = inf gives the max norm."""
    return float(space_norm(field.values, field.grid,
                            _check_exponent(p, "p"), nodes))


def lpq_norm(traj: Trajectory, p: float, q: float,
             t_lo: float | None = None, t_hi: float | None = None,
             nodes: np.ndarray | None = None) -> float:
    """L^p in time of the L^q space norm (space_norm over ``nodes``) on the
    frames in (t_lo, t_hi], all frames by default, by the left-rectangle
    rule over the frame gaps (Trajectory.frame_weights)."""
    p, q = _check_exponent(p, "p"), _check_exponent(q, "q")
    if t_lo is None and t_hi is None:
        idx = np.arange(traj.n_frames)
    else:
        lo = traj.times[0] - 1.0 if t_lo is None else t_lo
        hi = traj.times[-1] + 1.0 if t_hi is None else t_hi
        idx = traj.window(lo, hi)
    if idx.size == 0:
        raise DomainError("no frames in the requested time window")
    run = slice(idx[0], idx[-1] + 1)       # a window is a run of frames
    space = space_norm(traj.values[run], traj.grid, q, nodes)
    if p == _INF:
        return float(space.max())
    weights = traj.frame_weights()[run]
    return float(np.sum(weights * space ** p) ** (1.0 / p))


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


def _quotients(X, W, T, alpha, i, j):
    """Quotient of each pair (i[k], j[k]): the squared distance summed axis
    by axis, then sqrt, then _pair_quotient.  The arithmetic is symmetric in
    i and j, so every evaluation order gives the same bits."""
    d2 = np.zeros(i.shape)
    for ax in range(X.shape[1]):
        diff = X[i, ax] - X[j, ax]
        d2 += diff * diff
    dt_abs = None if T is None else np.abs(T[i] - T[j])
    return _pair_quotient(np.abs(W[i] - W[j]), dt_abs, np.sqrt(d2), alpha)


class _BlockTree:
    """Binary space partition of a point set (X, T) for pair_quotient_max.

    Each node splits along its widest axis (time counts with the width
    sqrt(T range), the parabolic scaling) at the distinct-value boundary
    nearest the median, so on grids sibling boxes keep a positive gap.
    Nodes of at most _LEAF points, or whose points all coincide, are
    leaves.  Nodes are numbered breadth first; ``child[k]`` is the first of
    node k's two consecutive children, -1 for a leaf, and node k owns the
    points ``perm[start[k]:stop[k]]`` with their box and T range.

    The tree is built one level at a time: every span of a level gets its
    widths, median and split from whole-level array passes, and a stable
    partition moves its left points ahead of its right ones.  The tree
    depends on (X, T) only; W enters through ``ranges``, so one tree
    serves every W on the same points (see _TREES).
    """

    def __init__(self, X, T):
        keys = X.T if T is None else np.vstack([X.T, T])
        keys = np.ascontiguousarray(keys, dtype=float)
        n = X.shape[0]
        self.perm = perm = np.arange(n)
        starts, stops, childs = [], [], []
        a, b = np.zeros(1, dtype=np.int64), np.full(1, n, dtype=np.int64)
        n_nodes = 1
        while a.size:
            child = np.full(a.size, -1, dtype=np.int64)
            big = np.flatnonzero(b - a > _LEAF)
            _, pos, offs, _ = _segments(a[big], b[big])
            pts = keys[:, perm[pos]]
            widths = (np.maximum.reduceat(pts, offs, axis=1)
                      - np.minimum.reduceat(pts, offs, axis=1))
            if T is not None:
                widths[-1] = np.sqrt(widths[-1])
            ax = np.argmax(widths, axis=0)
            # a zero (or NaN) widest width means coincident points: a leaf
            split = widths[ax, np.arange(big.size)] > 0
            big, ax = big[split], ax[split]
            seg, pos, offs, size = _segments(a[big], b[big])
            idx = perm[pos]
            key = keys[ax[seg], idx]
            # the median value's group [below, upto) holds the middle rank,
            # so its two edges are the value boundaries nearest the median
            ranked = np.lexsort((key, seg))
            mid = key[ranked[offs + size // 2]][seg]
            less = key < mid
            below = np.bincount(seg[less], minlength=big.size)
            upto = below + np.bincount(seg[key == mid], minlength=big.size)
            upper = (below == 0) | ((upto < size)
                                    & (2 * upto - size < size - 2 * below))
            left = np.where(upper[seg], key <= mid, less)
            cut = np.bincount(seg[left], minlength=big.size)
            perm[pos] = idx[np.lexsort((~left, seg))]
            child[big] = n_nodes + 2 * np.arange(big.size)
            starts.append(a)
            stops.append(b)
            childs.append(child)
            n_nodes += 2 * big.size
            lo, hi = a[big], b[big]
            a = np.column_stack([lo, lo + cut]).ravel()
            b = np.column_stack([lo + cut, hi]).ravel()
        self.start = np.concatenate(starts)
        self.stop = np.concatenate(stops)
        self.size = self.stop - self.start
        self.child = np.concatenate(childs)
        self.cuts = np.column_stack([self.start, self.stop]).ravel()
        lo, hi = self.ranges(keys.T[perm])
        dim = X.shape[1]
        self.lo, self.hi = lo[:, :dim], hi[:, :dim]
        self.tlo, self.thi = (lo[:, dim], hi[:, dim]) if T is not None \
            else (None, None)
        self.X = X[perm]
        self.T = None if T is None else T[perm]

    def ranges(self, values):
        """Per-node minimum and maximum of per-point ``values`` (in perm
        order) by one reduceat over the [start, stop) pairs; the padding
        row makes stop == n a valid index."""
        table = np.concatenate([values, np.zeros((1,) + values.shape[1:])])
        return (np.minimum.reduceat(table, self.cuts)[::2],
                np.maximum.reduceat(table, self.cuts)[::2])

    def bound(self, a, b, alpha, wlo, whi):
        """Upper bound of the quotient over every point pair of nodes a and
        b: the largest W difference (from the per-node W range wlo, whi)
        over the smallest parabolic distance of the two boxes.  Rounding
        is monotone in each input, so the bound holds in floating point;
        the 1e-12 slack covers a last-ulp non-monotone ``**``."""
        gap2 = np.zeros(a.shape)
        for ax in range(self.lo.shape[1]):
            gap = np.maximum(np.maximum(self.lo[b, ax] - self.hi[a, ax],
                                        self.lo[a, ax] - self.hi[b, ax]), 0.0)
            gap2 += gap * gap
        dist = np.sqrt(gap2) ** alpha
        if self.tlo is not None:
            gap_t = np.maximum(np.maximum(self.tlo[b] - self.thi[a],
                                          self.tlo[a] - self.thi[b]), 0.0)
            dist = gap_t ** (alpha / 2.0) + dist
        dw = np.maximum(whi[a] - wlo[b], whi[b] - wlo[a])
        return np.divide(dw, dist * (1.0 - 1e-12),
                         out=np.full(a.shape, _INF), where=dist > 0)

    def split(self, a, b):
        """Child pairs of the node pairs (a, b), a pair of leaves excepted:
        a node paired with itself gives its two children's three pairs;
        otherwise the node with more points is split (never a leaf)."""
        same = a == b
        c = self.child[a[same]]
        a, b = a[~same], b[~same]
        flip = (self.child[a] < 0) | ((self.child[b] >= 0)
                                      & (self.size[b] > self.size[a]))
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        ca = self.child[a]
        return (np.concatenate([c, c, c + 1, ca, ca + 1]),
                np.concatenate([c, c + 1, c + 1, b, b]))

    def leaf_pairs(self, a, b):
        """Indices (into perm) of every point pair of the leaf pairs (a, b),
        each unordered pair once."""
        nb = self.size[b]
        count = self.size[a] * nb
        k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        nb_k = np.repeat(nb, count)
        i = np.repeat(self.start[a], count) + k // nb_k
        j = np.repeat(self.start[b], count) + k % nb_k
        keep = (np.repeat(a != b, count)) | (i < j)
        return i[keep], j[keep]


def _segments(a, b):
    """The positions a[s]..b[s]-1 of consecutive spans s laid end to end:
    each position's span, the positions, and each span's offset and size
    in that layout."""
    size = b - a
    offs = np.cumsum(size) - size
    seg = np.repeat(np.arange(size.size), size)
    return seg, np.arange(size.sum()) + np.repeat(a - offs, size), offs, size


class RecentCache:
    """The values built for the last ``kept`` keys, matched by the exact
    dtype, shape and bytes of the key arrays (None allowed), so only equal
    inputs share a value; the least recently used key is dropped first."""

    def __init__(self, kept: int):
        self.kept = kept
        self._items: dict = {}       # oldest use first

    def __len__(self) -> int:
        return len(self._items)

    def get(self, arrays, build):
        """The value kept for ``arrays``, else ``build()``, kept."""
        key = tuple(None if v is None else (v.dtype.str, v.shape, v.tobytes())
                    for v in arrays)
        value = self._items.pop(key, None)
        if value is None:
            value = build()
            if len(self._items) >= self.kept:
                del self._items[next(iter(self._items))]
        self._items[key] = value
        return value


# block trees of the most recent point sets (X, T)
_TREES_KEPT = 8
_TREES = RecentCache(_TREES_KEPT)


def pair_quotient_max(X: np.ndarray, W: np.ndarray, alpha: float,
                      T: np.ndarray | None = None) -> float:
    """Largest Hoelder quotient over all point pairs:

        max_{i<j} |W_i - W_j| / (|T_i - T_j|^(alpha/2) + |X_i - X_j|^alpha)

    with X of shape (n, dim); T None is the spatial quotient (every time
    offset zero).  Exact, by branch-and-bound over pairs of _BlockTree
    nodes (a dual-tree search, Gray & Moore, NIPS 2000): the running best
    starts from every point paired with the argmax and the argmin of W; a
    node pair is dropped once its bound is <= the best, and the surviving
    leaf pairs (at most _LEAF points a leaf) are evaluated point by point,
    largest bound first, with the arithmetic of _quotients, so the result
    equals the brute-force maximum bit for bit.  The tree of (X, T) is
    reused across calls on the same points (the last _TREES_KEPT point
    sets, matched by their bytes); only the per-node W ranges are
    recomputed.  Any tree gives the exact maximum, so reuse changes no bit.
    """
    n = W.size
    if n < 2:
        return 0.0
    everyone = np.arange(n)
    best = max(float(_quotients(X, W, T, alpha, everyone,
                                np.full(n, k)).max())
               for k in (int(np.argmax(W)), int(np.argmin(W))))
    tree = _TREES.get((X, T), lambda: _BlockTree(X, T))
    Wp = W[tree.perm]
    wlo, whi = tree.ranges(Wp)
    a = b = np.zeros(1, dtype=np.int64)
    while a.size:
        bound = tree.bound(a, b, alpha, wlo, whi)
        live = bound > best
        a, b, bound = a[live], b[live], bound[live]
        leaves = (tree.child[a] < 0) & (tree.child[b] < 0)
        order = np.argsort(-bound[leaves], kind="stable")
        la, lb, lbound = (v[leaves][order] for v in (a, b, bound))
        for lo in range(0, la.size, _LEAF_PAIRS):
            if lbound[lo] <= best:
                break
            i, j = tree.leaf_pairs(la[lo:lo + _LEAF_PAIRS],
                                   lb[lo:lo + _LEAF_PAIRS])
            if i.size:
                best = max(best, float(_quotients(tree.X, Wp, tree.T, alpha,
                                                  i, j).max()))
        a, b = tree.split(a[~leaves], b[~leaves])
    return best


def holder_norm(traj: Trajectory, alpha: float) -> float:
    """Parabolic C^alpha norm: sup |w| plus the largest pair quotient over
    every pair of space-time nodes (exact, pair_quotient_max)."""
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    n_frames, n_nodes = traj.values.shape
    T = np.repeat(traj.times, n_nodes)
    X = np.tile(traj.mask.node_coords(), (n_frames, 1))
    sup = lpq_norm(traj, _INF, _INF)
    return sup + pair_quotient_max(X, traj.values.reshape(-1), alpha, T)


def holder_norm_field(field: Field, alpha: float,
                      nodes: np.ndarray | None = None) -> float:
    """Spatial C^alpha norm of one field over ``nodes``, all active nodes
    by default: sup |w| plus the largest pair quotient over every node
    pair (exact, pair_quotient_max); alpha = 0 is the sup norm."""
    if not 0 <= alpha <= 1:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    sup = lp_norm(field, _INF, nodes)
    if alpha == 0:
        return sup
    keep = slice(None) if nodes is None else nodes
    return sup + pair_quotient_max(field.mask.node_coords()[keep],
                                   field.values[keep], alpha)


def lipschitz_norm(field: Field) -> float:
    """sup |w| + Lipschitz constant over node pairs (alpha = 1)."""
    return holder_norm_field(field, 1.0)

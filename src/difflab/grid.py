"""Structured grids, node masks, and the divergence-form Laplacian.

The lab works on uniform tensor grids in d = 1..4 dimensions.  A geometry is
a boolean mask of *active* nodes inside the bounding box; staircase
approximations of balls and graph subdomains are masks.  Boundary conditions
are encoded per ghost node (an inactive node next to an active one):

* Neumann (default): ghost value mirrors the interior value, so the flux
  through the face is zero;
* Dirichlet: ghost value is minus the interior value, so the linear
  interpolant vanishes at the face midpoint.

The Laplacian is assembled in divergence form, as a difference of face
fluxes, once per mask: a sparse matrix on the active nodes with the ghost
rules folded into its diagonal.  On a pure-Neumann mask the node sum of the
Laplacian telescopes to zero exactly, which is what makes explicit diffusion
steps conserve mass to roundoff.  A mask whose every node is active also
stores the operator as diagonals.  Every solver in the lab advances its
species-major active-node state through :func:`march`, one sparse product
per step for all diffused species, on the diagonals where the mask has
them and on the CSR matrix elsewhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

# scipy.sparse.linalg and scipy.sparse.csgraph are imported where they are
# used: both load scipy.linalg, a large import that only the Poisson solve and
# the connectivity test of a mask with inactive nodes need.

from .errors import GeometryError, ParameterError, SolverError

MAX_NODES = 2 ** 24


# ---------------------------------------------------------------------------
# grid spec


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid: ``n[i]`` nodes spanning ``extent[i]`` per axis.

    The spacing ``h = extent[i] / (n[i] - 1)`` must agree across axes.
    ``origin`` places the first node, so node (j1,...,jd) sits at
    ``origin + h * (j1,...,jd)``.
    """

    dim: int
    extent: tuple[float, ...]
    n: tuple[int, ...]
    h: float
    origin: tuple[float, ...]

    @classmethod
    def make(cls, extent, n, origin=None) -> "GridSpec":
        if isinstance(n, int):
            n = (n,) * (len(extent) if isinstance(extent, (tuple, list)) else 1)
        n = tuple(int(k) for k in n)
        if isinstance(extent, (int, float)):
            extent = (float(extent),) * len(n)
        extent = tuple(float(e) for e in extent)
        dim = len(n)
        if dim != len(extent):
            raise ParameterError("extent and n must have the same length")
        if not 1 <= dim <= 4:
            raise ParameterError(f"dim must be in 1..4, got {dim}")
        if any(k < 2 for k in n):
            raise ParameterError("need at least 2 nodes per axis")
        total = math.prod(n)
        if total > MAX_NODES:
            raise ParameterError(f"node count {total} exceeds cap {MAX_NODES}")
        hs = [e / (k - 1) for e, k in zip(extent, n)]
        h = hs[0]
        if any(abs(hh - h) > 1e-12 * h for hh in hs):
            raise ParameterError(f"anisotropic spacing not supported: {hs}")
        if origin is None:
            origin = (0.0,) * dim
        origin = tuple(float(o) for o in origin)
        return cls(dim, extent, n, h, origin)

    @property
    def center(self) -> tuple[float, ...]:
        """The box center, origin + extent/2."""
        return tuple(o + 0.5 * e for o, e in zip(self.origin, self.extent))

    def axis_coords(self, ax: int) -> np.ndarray:
        return self.origin[ax] + self.h * np.arange(self.n[ax])

    def record(self) -> dict:
        """The grid entry of a report: dim, node counts and spacing."""
        return {"dim": self.dim, "n": list(self.n), "h": self.h}

    def meshgrid(self) -> list[np.ndarray]:
        """Full coordinate arrays, one per axis, each of shape ``n``."""
        axes = [self.axis_coords(ax) for ax in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))


# ---------------------------------------------------------------------------
# masks


class DomainMask:
    """Active-node mask plus boundary classes for the ghost nodes.

    ``active`` flags the nodes carrying field values.  ``dirichlet`` flags
    inactive nodes whose faces toward active neighbours enforce a zero trace;
    every other ghost face (including the bounding-box edge) is Neumann.
    The active set must be edge-connected.
    """

    def __init__(self, grid: GridSpec, active: np.ndarray,
                 dirichlet: np.ndarray | None = None):
        active = np.asarray(active, dtype=bool)
        if active.shape != grid.n:
            raise GeometryError(f"mask shape {active.shape} != grid {grid.n}")
        if not active.any():
            raise GeometryError("mask has no active nodes")
        if dirichlet is None:
            dirichlet = np.zeros(grid.n, dtype=bool)
        else:
            dirichlet = np.asarray(dirichlet, dtype=bool) & ~active
        self.grid = grid
        self.active = active
        self.dirichlet = dirichlet
        self.active_count = int(active.sum())
        self._coords = None
        self._lap = None
        self._dia = None
        self._grad = None
        self._row_max = None
        ncomp = self._component_count()
        if ncomp != 1:
            raise GeometryError(
                f"active set must be edge-connected, found {ncomp} components")

    # -- node bookkeeping ---------------------------------------------------

    def node_coords(self) -> np.ndarray:
        """(active_count, dim) array of active node coordinates."""
        if self._coords is None:
            mesh = self.grid.meshgrid()
            self._coords = np.stack([m[self.active] for m in mesh], axis=1)
        return self._coords

    def scatter(self, values: np.ndarray) -> np.ndarray:
        full = np.zeros(self.grid.n)
        full[self.active] = values
        return full

    def gather(self, full: np.ndarray) -> np.ndarray:
        return full[self.active]

    def nearest_node(self, point: Sequence[float]) -> tuple[int, ...]:
        """Index of the active node closest to ``point``."""
        coords = self.node_coords()
        i = int(np.argmin(np.sum((coords - np.asarray(point)) ** 2, axis=1)))
        flat = np.flatnonzero(self.active.ravel())[i]
        return tuple(int(k) for k in np.unravel_index(flat, self.grid.n))

    def ball_nodes(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Boolean over active nodes: Euclidean distance to center <= radius."""
        coords = self.node_coords()
        d2 = np.sum((coords - np.asarray(center, dtype=float)) ** 2, axis=1)
        return d2 <= radius * radius * (1 + 1e-12)

    def _component_count(self) -> int:
        """Components of the active set under face adjacency: 1 for a full
        box, which builds nothing; otherwise the components of the graph
        whose edges are the :meth:`_neighbours` pairs."""
        if self.active_count == self.active.size:
            return 1
        from scipy.sparse.csgraph import connected_components
        rows, cols = [], []
        for ax in range(self.grid.dim):
            up = self._neighbours(ax)[1]
            rows.append(np.flatnonzero(up >= 0))
            cols.append(up[rows[-1]])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        pairs = sparse.csr_matrix((np.ones(rows.size), (rows, cols)),
                                  shape=(self.active_count,) * 2)
        return int(connected_components(pairs, directed=False)[0])

    # -- operators ----------------------------------------------------------

    def _neighbours(self, ax: int):
        """Per active node along ``ax``: the rows of its lower and upper
        neighbours (-1 where that node is not active) and how many of the
        two are Dirichlet ghosts."""
        idx = np.full(self.grid.n, -1, dtype=np.int64)
        idx[self.active] = np.arange(self.active_count)
        axes = range(self.grid.dim)
        lo = tuple(slice(None, -1) if a == ax else slice(None) for a in axes)
        hi = tuple(slice(1, None) if a == ax else slice(None) for a in axes)
        down, up = np.full_like(idx, -1), np.full_like(idx, -1)
        down[hi], up[lo] = idx[lo], idx[hi]
        ghosts = np.zeros(self.grid.n)
        ghosts[hi] += self.dirichlet[lo]
        ghosts[lo] += self.dirichlet[hi]
        return down[self.active], up[self.active], ghosts[self.active]

    def _stencils(self):
        """Per axis: the neighbour rows of :meth:`_neighbours` and the
        axis's diagonal weight of -Laplacian*h^2 (active neighbours count 1,
        Dirichlet ghosts 2).  Both storages of the Laplacian read these."""
        for ax in range(self.grid.dim):
            down, up, ghosts = self._neighbours(ax)
            weight = (down >= 0).astype(float) + (up >= 0) + 2.0 * ghosts
            yield down, up, weight

    def laplacian_matrix(self) -> sparse.csr_matrix:
        """Divergence-form Laplacian on the active nodes, assembled once.

        A face to an active neighbour j carries the flux (u_j - u_i)/h^2, a
        face to a Dirichlet ghost -2 u_i/h^2, a Neumann face nothing.  Row i
        lists, axis by axis, the neighbours along the axis and then i itself
        with the axis's diagonal weight, so each axis sums to exactly zero
        on a constant.  The matrix is symmetric and negative semidefinite;
        on a pure-Neumann mask its rows sum to zero.  On an all-active mask
        :meth:`laplacian_diagonals` holds the same entries in the same row
        order as diagonals.
        """
        if self._lap is None:
            n = self.active_count
            me = np.arange(n)
            c = 1.0 / self.grid.h ** 2
            diag = np.zeros(n)                 # diagonal weight of -lap*h^2
            cols, vals = [], []                # one column per row entry
            for down, up, weight in self._stencils():
                diag += weight
                cols += [down, up, np.where(weight > 0, me, -1)]
                vals += [np.full(n, c), np.full(n, c), -c * weight]
            cols, vals = np.stack(cols, axis=1), np.stack(vals, axis=1)
            keep = cols >= 0                   # row-major: entries keep order
            indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
            self._lap = sparse.csr_matrix((vals[keep], cols[keep], indptr),
                                          shape=(n, n))
            self._row_max = float(diag.max())
        return self._lap

    def laplacian_diagonals(self):
        """:meth:`laplacian_matrix` of an all-active mask as diagonals, built
        once; None when some node is inactive.

        Returns ``(offsets, data)``: per axis with flat stride s, the
        offsets (-s, +s, 0) in the order of the entries of each CSR row.
        ``data[i, col]`` is the entry of row ``col - offsets[i]`` in column
        ``col``, as scipy's DIA storage has it, and is 0 where that row has
        no such neighbour, including where the flat index wraps at the end
        of an axis line and where the row lies outside the matrix.  So the
        columns of j such arrays side by side are j copies of the operator
        down a block diagonal.
        """
        if self._dia is None and self.active_count == self.active.size:
            n = self.active_count
            c = 1.0 / self.grid.h ** 2
            offsets, data = [], []
            for ax, (down, up, weight) in enumerate(self._stencils()):
                stride = math.prod(self.grid.n[ax + 1:])
                lower, upper = np.zeros(n), np.zeros(n)
                lower[down[down >= 0]] = c    # entry (i, i - s), column i - s
                upper[up[up >= 0]] = c        # entry (i, i + s), column i + s
                offsets += [-stride, stride, 0]
                data += [lower, upper, -c * weight]
            self._dia = (np.array(offsets, dtype=np.int64), np.stack(data))
        return self._dia

    def gradient_matrix(self) -> sparse.csr_matrix:
        """Nodal gradient as a (dim * active_count, active_count) matrix.

        Row ``i * dim + ax`` differences node i along ``ax``: central where
        both axis neighbours are active, one-sided where only one is, an
        empty row where the node is isolated along the axis.
        """
        if self._grad is None:
            n, dim = self.active_count, self.grid.dim
            me = np.arange(n)
            rows, cols, data = [], [], []
            for ax in range(dim):
                down, up, _ = self._neighbours(ax)
                step = self.grid.h * ((down >= 0).astype(float) + (up >= 0))
                ok = step > 0
                rows += [me[ok] * dim + ax] * 2
                cols += [np.where(up >= 0, up, me)[ok],
                         np.where(down >= 0, down, me)[ok]]
                data += [1.0 / step[ok], -1.0 / step[ok]]
            self._grad = sparse.csr_matrix(
                (np.concatenate(data),
                 (np.concatenate(rows), np.concatenate(cols))),
                shape=(dim * n, n))
        return self._grad

    def laplacian_full(self, vals: np.ndarray) -> np.ndarray:
        """:meth:`laplacian_matrix` applied to a full-box array (zeros
        off-mask; ghost values are never read)."""
        return self.scatter(self.laplacian_matrix() @ self.gather(vals))

    def stencil_row_max(self) -> float:
        """Largest diagonal weight of -Laplacian*h^2 over active nodes.

        Interior faces count 1, Dirichlet faces count 2; this drives the
        explicit-Euler stability limit.
        """
        self.laplacian_matrix()
        return self._row_max


def full_mask(grid: GridSpec) -> DomainMask:
    """All nodes active, Neumann box."""
    return DomainMask(grid, np.ones(grid.n, dtype=bool))


def ball_mask(grid: GridSpec, center: Sequence[float], radius: float,
              boundary: str = "neumann") -> DomainMask:
    """Staircase ball; ghost faces all Neumann or all Dirichlet."""
    mesh = grid.meshgrid()
    d2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
    active = d2 <= radius * radius
    if boundary == "neumann":
        dirichlet = None
    elif boundary == "dirichlet":
        dirichlet = ~active
    else:
        raise ParameterError(f"unknown boundary class {boundary!r}")
    return DomainMask(grid, active, dirichlet)


def graph_domain_mask(grid: GridSpec, radius: float,
                      phi: Callable[[np.ndarray], np.ndarray] | float
                      ) -> DomainMask:
    """Ball at the origin cut by a graph: active where |x| < R and
    x_d > phi(x'); shift ``GridSpec.origin`` to move the domain.

    phi maps the first d-1 coordinates to a height; in 1d it is a constant.
    Ghosts below the graph are Neumann, the rest of the sphere is
    Dirichlet.  The admissibility constraints sup phi <= R/(11 d) and
    Lip(phi) <= 1/(11 d) are the caller's business (checked by the
    estimates that need them, not here).
    """
    mesh = grid.meshgrid()
    d2 = sum(x ** 2 for x in mesh)
    if callable(phi):
        if grid.dim == 1:
            height = float(np.asarray(phi(np.zeros((1, 0)))).ravel()[0])
        else:
            prime = np.stack([x.ravel() for x in mesh[:-1]], axis=1)
            height = np.asarray(phi(prime), dtype=float).reshape(grid.n)
    else:
        height = float(phi)
    below = mesh[-1] <= height
    active = (d2 < radius * radius) & ~below
    dirichlet = ~active & ~below
    return DomainMask(grid, active, dirichlet)


# ---------------------------------------------------------------------------
# fields and trajectories


class Field:
    """Values on the active nodes of a mask.  Immutable after construction."""

    __slots__ = ("mask", "values")

    def __init__(self, mask: DomainMask, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (mask.active_count,):
            raise ParameterError(
                f"expected {mask.active_count} values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ParameterError("field values must be finite")
        values = values.copy()
        values.flags.writeable = False
        self.mask = mask
        self.values = values

    @property
    def grid(self) -> GridSpec:
        return self.mask.grid

    @classmethod
    def constant(cls, mask: DomainMask, c: float) -> "Field":
        return cls(mask, np.full(mask.active_count, float(c)))

    @classmethod
    def from_function(cls, mask: DomainMask, fn) -> "Field":
        coords = mask.node_coords()
        vals = np.asarray(fn(coords), dtype=float).reshape(-1)
        return cls(mask, vals)


class Trajectory:
    """Time frames of fields on one mask; the frame times are finite and
    strictly increasing, the gaps may differ, and time quadrature uses
    ``frame_weights``."""

    def __init__(self, mask: DomainMask, times: np.ndarray, values: np.ndarray):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape != (times.size, mask.active_count):
            raise ParameterError("frame matrix shape mismatch")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ParameterError(
                "frame times must be finite and strictly increasing")
        self.mask = mask
        self.times = times
        self.values = values

    @property
    def grid(self) -> GridSpec:
        return self.mask.grid

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def n_frames(self) -> int:
        return int(self.times.size)

    def frame_weights(self) -> np.ndarray:
        """Left-rectangle quadrature weight of each frame: its gap to the
        next frame, the previous gap for the last frame, 0 for one frame."""
        gaps = np.diff(self.times)
        return np.append(gaps, gaps[-1:]) if gaps.size \
            else np.zeros(self.times.size)

    def window(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Indices of frames with t in (t_lo, t_hi], with roundoff slack."""
        eps = 1e-9 * max(1.0, abs(t_hi - t_lo))
        idx = np.nonzero((self.times > t_lo + eps) & (self.times <= t_hi + eps))[0]
        return idx


@dataclass(frozen=True)
class ParabolicCylinder:
    """Backward space-time cylinder (t0 - shape*R^2, t0] x B(x0, R)."""

    t0: float
    x0: tuple[float, ...]
    radius: float
    shape: float

    @property
    def window(self) -> float:
        return self.shape * self.radius ** 2

    def shrink(self, factor: float = 4.0) -> "ParabolicCylinder":
        """Radius divided by ``factor``; the time window shrinks by factor^2."""
        return ParabolicCylinder(self.t0, self.x0, self.radius / factor,
                                 self.shape)


# ---------------------------------------------------------------------------
# operators


def stable_dt(mask: DomainMask, rate: float = 1.0) -> float:
    """Explicit-Euler step limit h^2/(row max * rate) of du/dt = rate lap u
    + ... on this mask: the ``limit`` every solver hands :func:`march`,
    which steps at 0.9 of it by default.

    For an interior node the row max is 2d; Dirichlet faces raise it
    because their ghost contributes -2u to the flux.
    """
    if rate <= 0:
        raise ParameterError("rate must be positive")
    return mask.grid.h ** 2 / (mask.stencil_row_max() * rate)


def gradient(field: Field) -> np.ndarray:
    """(active_count, dim) nodal gradient.

    Central differences where both axis neighbours are active, one-sided
    where only one is, zero where the node is isolated along the axis.
    """
    mask = field.mask
    return (mask.gradient_matrix() @ field.values).reshape(
        mask.active_count, mask.grid.dim)


def poisson_neumann(rhs: Field) -> Field:
    """Solve laplacian(u) = rhs on the mask with Neumann ghosts.

    The right-hand side must have (near) zero node mean; the solution is
    returned with zero node mean.  A direct sparse solve with the first node
    pinned, then the mean removed; the relative residual is checked to 1e-9.
    """
    mask = rhs.mask
    b = rhs.values
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    if scale == 0.0:
        return Field.constant(mask, 0.0)
    mean = float(np.mean(b))
    if abs(mean) > 1e-10 * scale:
        raise ParameterError(
            f"rhs node mean {mean:.3e} not zero (relative tol 1e-10)")
    b = b - mean
    from scipy.sparse.linalg import spsolve
    lap = mask.laplacian_matrix()
    x = np.zeros_like(b)
    x[1:] = spsolve(lap[1:, 1:].tocsc(), b[1:])
    x -= x.mean()
    resid = np.linalg.norm(lap @ x - b) / np.linalg.norm(b)
    if not resid <= 1e-9:
        raise SolverError(f"poisson solve failed: relative residual {resid:.3e}")
    return Field(mask, x)


# ---------------------------------------------------------------------------
# explicit time marching


def _stacked_operator(mask: DomainMask, scale: np.ndarray):
    """``apply(x, out)``: add ``scale[i]`` L times row i of a contiguous
    (j, N) block, flattened as ``x``, into the flat ``out``, j = len(scale).

    An all-active mask tiles :meth:`DomainMask.laplacian_diagonals` j times
    for scipy's DIA kernel; any other mask puts j copies of the CSR matrix
    down a block diagonal for its CSR kernel.  Copy i holds each entry of L
    times ``scale[i]``, rounded once.  Either way each row keeps its
    entries and their order.  The kernels check no sizes.
    """
    j = scale.size
    dia = mask.laplacian_diagonals()
    if dia is not None:
        offsets, data = dia
        data = np.tile(data, (1, j)) * np.repeat(scale, data.shape[1])
        return functools.partial(_sparsetools.dia_matvec, data.shape[1],
                                 data.shape[1], offsets.size, data.shape[1],
                                 offsets, data)
    lap = mask.laplacian_matrix()
    n, nnz = lap.shape[0], lap.nnz
    indptr = np.concatenate([lap.indptr[:-1] + i * nnz for i in range(j)]
                            + [lap.indptr[-1:] * j])
    indices = np.concatenate([lap.indices + i * n for i in range(j)])
    data = np.tile(lap.data, j) * np.repeat(scale, nnz)
    return functools.partial(_sparsetools.csr_matvec, j * n, j * n, indptr,
                             indices, data)


class Marched(NamedTuple):
    """What :func:`march` recorded."""

    times: np.ndarray       # (F,) frame times
    steps: np.ndarray       # (F,) step index of each frame
    frames: np.ndarray      # (k, F, N): row j of the state, frame by frame
    dt: float
    n_steps: int
    clipped: float          # node-quadrature mass removed by clipping
    peak: float             # largest clipped-row value after any step


def march(mask: DomainMask, state: np.ndarray, prefill, diffusions,
          t_end: float, dt: float | None, limit: float, frames,
          finish=None, clip: int = 0) -> Marched:
    """Explicit Euler for a species-major (k, N) active-node state.

    The state U is one C-contiguous (k, N) block whose rows are species,
    and V one more such block; the two swap after every step.  With
    j = len(``diffusions``), dt * ``diffusions[i]`` is folded into copy i
    of L once per solve (:func:`_stacked_operator`).  Step k (1-based,
    start time t)

    * calls ``prefill(k, t, dt, U, V, top)``, where ``top`` holds the
      maxima of the first ``clip`` rows of U at the start of the step.  It
      writes every row of V, as U plus dt times the reaction terms, and
      returns the (j, N) rows to diffuse: a view of U or of another
      buffer, never of V (it may overwrite rows of U it has read);
    * adds dt ``diffusions[i]`` L times returned row i into row i of V, by
      one 1-D product with the j scaled copies of L down a block diagonal;
    * calls ``finish(k, t, dt, U, V)`` when given, which may rework V;
    * swaps U and V: the clip audit and the frames read the new U.

    The product runs one scipy kernel, chosen by the mask alone, and
    both kernels add into their output.  On an all-active mask it is the
    DIA kernel (``dia_matvec``) on the stored diagonals; on any other mask
    it is the CSR kernel (``csr_matvec``), which adds each row's entries in
    order onto the prefilled value.  The DIA kernel adds diagonal by
    diagonal, and the diagonals follow the order of a CSR row, so each
    output receives the same products in the same order, plus a product
    with a padded 0 where a neighbour is absent.  That product is +-0.0
    when the state value is finite.  In round-to-nearest a sum is -0.0
    only when both terms are, so a sum that starts at any value other
    than -0.0 never becomes -0.0, and adding +-0.0 to it leaves it
    unchanged: the two kernels then agree bit for bit.  A -0.0 start may
    end as -0.0 on one kernel and +0.0 on the other, so only the sign of
    a zero can differ, and only where the prefill was -0.0.  (An infinite
    or NaN state value makes a padded product NaN, so the kernels may then
    differ; such a state has blown up anyway.)  Since dt c is folded into
    L and the reaction terms are scaled before the sum, a step rounds as
    U + dt r + sum (dt c l) x, not as U + dt (r + c sum l x): the two
    differ only in the last two or three of the 16 significant digits.

    ``dt`` defaults to 0.9 ``limit``, must be positive and finite, and may
    not exceed the stability ``limit``; the march runs from 0 and
    ``t_end`` must be positive and finite.  The step count is
    ceil(t_end/dt) and dt shrinks to divide t_end exactly.

    ``frames`` is a frame count of at least 2, spread linearly over the
    steps so that the first and last step are recorded, or a function of
    the final dt returning the times to record, snapped to the nearest
    step; the initial state is always frame 0.

    The first ``clip`` rows are densities: negative values are clipped to
    zero after every step and the removed node-quadrature mass may not
    exceed 1e-8 of the final mass of those rows; a density above 1e9 or
    non-finite aborts the run as a blow-up.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ParameterError(f"t_end must be positive and finite, got {t_end}")
    if not callable(frames) and frames < 2:
        raise ParameterError(
            f"need at least 2 frames (start and end), got {frames}")
    if dt is None:
        dt = 0.9 * limit
    if not (math.isfinite(dt) and dt > 0):
        raise ParameterError(f"dt must be positive and finite, got {dt}")
    if dt > limit * (1 + 1e-12):
        raise ParameterError(
            f"dt={dt:.3e} violates the stability limit {limit:.3e}")
    n_steps = max(1, math.ceil(t_end / dt))
    dt = t_end / n_steps
    if callable(frames):
        record = np.clip(np.rint(np.asarray(frames(dt)) / dt), 1, n_steps)
    else:
        record = np.rint(np.linspace(0, n_steps, min(frames, n_steps + 1)))
    record = np.union1d(0, record.astype(int))
    marks = record.tolist() + [-1]         # steps to record, then a stop

    hd = mask.grid.h ** mask.grid.dim
    U = np.array(state, dtype=float, order="C")
    scale = dt * np.asarray(diffusions, dtype=float)
    shape = (scale.size, mask.active_count)
    if U.ndim != 2 or U.shape[0] < shape[0] or U.shape[1] != shape[1]:
        raise ParameterError(
            f"state of shape {U.shape}, expected at least {shape}")
    V = np.empty_like(U)
    apply = _stacked_operator(mask, scale)
    target, spare = V[:scale.size].reshape(-1), U[:scale.size].reshape(-1)
    stack = np.empty((U.shape[0], record.size, U.shape[1]))
    stack[:, 0] = U
    top = U[:clip].max(axis=1)
    clipped = 0.0
    peak = -math.inf
    slot = 1
    for k in range(1, n_steps + 1):
        t = (k - 1) * dt
        rows = prefill(k, t, dt, U, V, top)
        if rows.shape != shape:        # the kernels check no sizes
            raise ParameterError(
                f"diffused rows of shape {rows.shape}, expected {shape}")
        apply(rows.reshape(-1), target)
        if finish is not None:
            finish(k, t, dt, U, V)
        U, V, target, spare = V, U, spare, target
        if clip:
            head = U[:clip]
            if head.min() < 0:
                neg = head < 0
                clipped -= hd * float(head[neg].sum())
                head[neg] = 0.0
            np.max(head, axis=1, out=top)
            high = float(top.max())
            if not high <= 1e9:
                raise SolverError(f"blow-up at step {k}")
            peak = max(peak, high)
        if k == marks[slot]:
            stack[:, slot] = U
            slot += 1
    if clip:
        total = hd * float(U[:clip].sum())
        if clipped > 1e-8 * max(total, 1e-30):
            raise SolverError(f"clipped mass {clipped:.3e} exceeds 1e-8 of "
                              f"total {total:.3e}")
    return Marched(record * dt, record, stack, dt, n_steps, clipped, peak)

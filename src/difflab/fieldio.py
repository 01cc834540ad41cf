"""Snapshot I/O.

Binary trajectory layout, version 2 (little endian):

* magic ``b"DIFFLAB\\0"``, int32 version (2), int32 dim;
* int32 node count per axis, float64 extent per axis, float64 origin per
  axis;
* int32 frame count, float64 time per frame;
* uint8 node class per box node in C order: 0 inactive, 1 active,
  2 Dirichlet ghost;
* float64 values of the active nodes, frame after frame.

The file length must match its header exactly: a truncated or foreign file
raises ``ParameterError``.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ParameterError
from .grid import DomainMask, GridSpec, Trajectory

_HEAD = struct.Struct("<8sii")       # magic, version, dim
_MAGIC = b"DIFFLAB\0"
_VERSION = 2
_ACTIVE, _DIRICHLET = 1, 2           # node classes; 0 is inactive


def save_trajectory(path, traj: Trajectory) -> None:
    grid = traj.grid
    classes = np.zeros(grid.n, dtype=np.uint8)
    classes[traj.mask.active] = _ACTIVE
    classes[traj.mask.dirichlet] = _DIRICHLET
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(_MAGIC, _VERSION, grid.dim))
        fh.write(struct.pack(f"<{grid.dim}i{2 * grid.dim}di", *grid.n,
                             *grid.extent, *grid.origin, traj.n_frames))
        fh.write(np.ascontiguousarray(traj.times, dtype="<f8").tobytes())
        fh.write(classes.tobytes())
        fh.write(np.ascontiguousarray(traj.values, dtype="<f8").tobytes())


def load_trajectory(path) -> Trajectory:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, version, dim = _HEAD.unpack_from(data)
        if magic != _MAGIC or version != _VERSION or not 1 <= dim <= 4:
            raise ParameterError("not a version-2 difflab trajectory")
        geom = struct.Struct(f"<{dim}i{2 * dim}di")
        *sizes, n_frames = geom.unpack_from(data, _HEAD.size)
        n, extent, origin = tuple(sizes[:dim]), sizes[dim:2 * dim], sizes[2 * dim:]
        if min(n) < 2 or n_frames < 1:
            raise ParameterError(f"node counts {n}, {n_frames} frames")
        pos = _HEAD.size + geom.size
        times = np.frombuffer(data, "<f8", n_frames, pos)
        pos += times.nbytes
        classes = np.frombuffer(data, np.uint8, int(np.prod(n)), pos)
        pos += classes.nbytes
        active = (classes == _ACTIVE).reshape(n)
        values = np.frombuffer(data, "<f8", n_frames * int(active.sum()), pos)
    except (struct.error, ValueError) as exc:
        raise ParameterError(f"unreadable snapshot {path}: {exc}") from exc
    if pos + values.nbytes != len(data) or classes.max() > _DIRICHLET:
        raise ParameterError(f"corrupt snapshot {path}: length or node class")
    grid = GridSpec.make(extent, n, origin=origin)
    mask = DomainMask(grid, active, (classes == _DIRICHLET).reshape(n))
    return Trajectory(mask, times.astype(float),
                      values.reshape(n_frames, -1).astype(float))

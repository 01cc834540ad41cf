"""Layer probes: fixed-size direct calls into single layers.

Each probe times one public function on a fixed geometry, outside any
workload and with the tracer removed, and reports the median of several
timed blocks.  Operator probes are normalised per active node per apply.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import difflab as dl
from workloads import GRAPH_R

BLOCKS = 5
BLOCK_S = 0.02        # a block repeats the call until it lasts this long


def per_call(fn, blocks: int = BLOCKS) -> float:
    """Median seconds per call over ``blocks`` timed blocks."""
    t = time.perf_counter()
    fn()
    reps = max(1, int(BLOCK_S / max(time.perf_counter() - t, 1e-9)))
    times = []
    for _ in range(blocks):
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t) / reps)
    return statistics.median(times)


def _graph193():
    grid = dl.GridSpec.make((2.0, 2.0), 193, origin=(-1.0, -1.0))
    return dl.admissible_graph_domain(grid, GRAPH_R, 0.0)


def run_probes(seed: int, scratch) -> dict:
    """Probe name -> (value, unit); files go under ``scratch``."""
    rng = np.random.default_rng(seed)
    out = {}
    masks = {
        "box64": dl.full_mask(dl.GridSpec.make((1.0, 1.0), 64)),
        "box193": dl.full_mask(dl.GridSpec.make((1.0, 1.0), 193)),
        "box32c": dl.full_mask(dl.GridSpec.make((1.0, 1.0, 1.0), 32)),
        "graph193": _graph193(),
    }
    for label, mask in masks.items():
        full = mask.scatter(rng.random(mask.active_count))
        sec = per_call(lambda: mask.laplacian_full(full))
        out[f"grid.lap.probe_{label}.ns_per_node"] = (
            sec * 1e9 / mask.active_count, "ns/node")

    cube = masks["box32c"]
    field = dl.Field(cube, rng.random(cube.active_count))
    sec = per_call(lambda: dl.gradient(field))
    out["grid.gradient.probe_box32c.ns_per_node"] = (
        sec * 1e9 / cube.active_count, "ns/node")

    # criterion-10 geometry; the covering cost does not depend on the
    # threshold, so the sup of w stands in for the Hoelder norm
    coords = cube.node_coords()
    domain = np.all((coords > 0.15) & (coords < 0.85), axis=1)
    u, w = dl.random_admissible_pair(cube, domain, rng)
    threshold = float(np.max(np.abs(w.values[domain])))
    out["interp.radii.probe_s"] = (per_call(
        lambda: dl.covering_radii(u, threshold, 2.0, 0.3, 0.15, domain),
        blocks=3), "s")

    spec = dl.preset_uum(2, (2, 1))
    out["systems.structural.probe_s"] = (per_call(
        lambda: dl.structural_checks(spec, n_samples=100_000),
        blocks=3), "s")

    graph = masks["graph193"]
    frames = 32
    traj = dl.Trajectory(graph, 1e-3 * np.arange(frames),
                         rng.random((frames, graph.active_count)))
    path = scratch / "probe.traj"
    try:
        out["fieldio.save.probe_s"] = (per_call(
            lambda: dl.save_trajectory(path, traj), blocks=3), "s")
        out["fieldio.load.probe_s"] = (per_call(
            lambda: dl.load_trajectory(path), blocks=3), "s")
    finally:
        path.unlink(missing_ok=True)
    return out

"""Span tracer for the traced benchmark run.

The tracer measures each difflab layer from outside: it replaces the public
functions of a layer by wrappers that record one span per call (name, start,
end, parent span, case id) and leaves the library source untouched.  Spans
stay in memory, in flat arrays, until the run ends.

A function imported by name into another module (``gradient`` into ``interp``
and ``systems``, ``oscillation`` into ``rough``) is bound once per importing
module, so every module of the package is searched and every binding of the
target is replaced.  A method is replaced once, on its class.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "difflab"
SETUP_CASE = -1


def _lap_measure(args, kwargs, result):
    mask = args[0]
    return (("active", mask.active_count), ("box", mask.active.size))


def _solve_measure(args, kwargs, result):
    return (("steps", result.steps), ("clipped_mass", result.clipped_mass))


def _rough_measure(args, kwargs, result):
    w_init = args[0]
    coeff = args[1] if len(args) > 1 else kwargs["coeff"]
    mask = w_init.mask
    limit = coeff.a0 * mask.grid.h ** 2 / mask.stencil_row_max()
    return (("steps", result.steps), ("dt_over_limit", result.dt / limit))


def _interp_measure(args, kwargs, result):
    return (("n_balls", result.details["n_balls"]),)


def _emit_measure(args, kwargs, result):
    return (("bytes", sum(p.stat().st_size for p in result)),)


def _save_measure(args, kwargs, result):
    return (("bytes", os.path.getsize(args[0])),)


# (span name, module, attribute path, measure); several targets may share
# one span name, which then sums over them.
LAYERS = (
    ("grid.lap", "grid", "DomainMask.laplacian_full", _lap_measure),
    ("grid.gradient", "grid", "gradient", None),
    ("grid.poisson", "grid", "poisson_neumann", None),
    ("grid.mask", "grid", "DomainMask.__init__", None),
    ("kernel.evolve", "kernel", "kernel_evolve", None),
    ("kernel.checks", "kernel", "kernel_norm_report", None),
    ("kernel.checks", "kernel", "moment_report", None),
    ("kernel.checks", "kernel", "gaussian_lower_bound_check", None),
    ("rough.solve", "rough", "solve_rough", _rough_measure),
    ("rough.checks", "rough", "oscillation_decay_check", None),
    ("rough.checks", "rough", "supremum_bound_check", None),
    ("norms.oscillation", "norms", "oscillation", None),
    ("systems.skt", "systems", "skt_solve", _solve_measure),
    ("systems.quad", "systems", "quadratic_solve", _solve_measure),
    ("systems.general", "systems", "general_solve", _solve_measure),
    ("systems.aux", "systems", "skt_auxiliary", None),
    ("systems.aux", "systems", "convexified", None),
    ("systems.reports", "systems", "nu_bounds_report", None),
    ("systems.reports", "systems", "lp_energy_report", None),
    ("systems.reports", "systems", "quad_mass_report", None),
    ("systems.reports", "systems", "quad_mu_report", None),
    ("systems.reports", "systems", "quad_identity_report", None),
    ("systems.reports", "systems", "transformed_residual_report", None),
    ("systems.reports", "systems", "transform_consistency_report", None),
    ("systems.structural", "systems", "structural_checks", None),
    ("interp.check", "interp", "interpolation_check", _interp_measure),
    ("interp.covering", "interp", "build_covering", None),
    ("interp.radii", "interp", "covering_radii", None),
    ("interp.cutball", "interp", "cut_ball_check", None),
    ("interp.pair", "interp", "random_admissible_pair", None),
    ("harness.run", "harness", "run_experiment", None),
    ("harness.calibration", "harness", "kernel_calibration", None),
    ("report.emit", "report", "emit", _emit_measure),
    ("fieldio.save", "fieldio", "save_trajectory", _save_measure),
    ("fieldio.load", "fieldio", "load_trajectory", None),
)


class Tracer:
    """Records spans of wrapped calls; ``install``/``uninstall`` patch the
    package so that untraced passes run the original functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        # (name id, case id, key) -> summed value from the span's measure
        self.counts: dict = defaultdict(float)
        self.case_id = SETUP_CASE
        self.missing: list[str] = []
        self._stack = [-1]
        self._wrapped = None
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, measure=None):
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.case.append(self.case_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if measure is not None:
                for key, val in measure(args, kwargs, result):
                    self.counts[(nid, self.case_id, key)] += val
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _targets(self):
        """(original, wrapper, owner-or-None, attribute) per layer target."""
        if self._wrapped is None:
            self._wrapped = []
            for name, module, path, measure in LAYERS:
                mod = sys.modules.get(f"{PACKAGE}.{module}")
                owner = mod
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, parts[-1], None) if owner else None
                if fn is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                is_method = len(parts) > 1
                self._wrapped.append((fn, self.wrap(name, fn, measure),
                                      owner if is_method else None,
                                      parts[-1]))
        return self._wrapped

    def install(self):
        """Replace every binding of every target in the package."""
        if self._patches:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None
                   and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for fn, traced, owner, attr in self._targets():
            if owner is not None:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, traced)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "case": np.frombuffer(self.case, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Spans must be listed in start order with parents before children (the
    order in which the tracer allocates them).  Overlapping children are
    merged, so covered time is never counted twice.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    return dur - np.asarray(covered)


def descendant_counts(name, parent, child_id: int, ancestor_id: int):
    """Per ``ancestor_id`` span: the number of ``child_id`` spans under it."""
    out = defaultdict(int)
    for i in range(len(name)):
        if name[i] != child_id:
            continue
        p = parent[i]
        while p >= 0:
            if name[p] == ancestor_id:
                out[p] += 1
                break
            p = parent[p]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, case_pass) -> tuple[list[dict], dict]:
    """Per-layer numbers for each traced pass, plus the set-up phase.

    ``case_pass[c]`` is the pass index of case id ``c``; spans recorded
    outside any case belong to set-up.  Returns one metric dict per pass
    and one dict of set-up busy times.
    """
    a = tracer.arrays()
    n_names = len(tracer.names)
    if a["name"].size == 0 or n_names == 0:
        return [], {}
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    case_pass = np.asarray(case_pass, dtype=np.int64)
    span_pass = np.where(a["case"] >= 0, case_pass[np.maximum(a["case"], 0)],
                         -1)
    n_pass = int(case_pass.max()) + 1 if case_pass.size else 0
    slot = (span_pass + 1) * n_names + a["name"]
    size = (n_pass + 1) * n_names
    tot = np.bincount(slot, weights=dur, minlength=size).reshape(-1, n_names)
    slf = np.bincount(slot, weights=own, minlength=size).reshape(-1, n_names)
    calls = np.bincount(slot, minlength=size).reshape(-1, n_names)

    nid = tracer._name_ids
    lap = nid.get("grid.lap", -1)
    evolve = nid.get("kernel.evolve", -1)
    evolve_steps = np.zeros(n_pass + 1)
    for span, k in descendant_counts(a["name"], a["parent"], lap,
                                     evolve).items():
        evolve_steps[span_pass[span] + 1] += k
    counts = defaultdict(float)
    for (name, case, key), val in tracer.counts.items():
        p = int(case_pass[case]) if case >= 0 else -1
        counts[(tracer.names[name], p, key)] += val

    def col(table, name, row):
        return float(table[row, nid[name]]) if name in nid else 0.0

    passes = []
    for p in range(n_pass):
        row = p + 1

        def s(name):
            return col(tot, name, row)

        def own_s(name):
            return col(slf, name, row)

        def n(name):
            return col(calls, name, row)

        def c(name, key):
            return counts.get((name, p, key), 0.0)

        lap_s = s("grid.lap")
        active = c("grid.lap", "active")
        box = c("grid.lap", "box")
        m = {
            "grid.lap.calls": n("grid.lap"),
            "grid.lap.s": lap_s,
            "grid.lap.ns_per_node": _ratio(lap_s * 1e9, active),
            "grid.lap.active_frac": _ratio(active, box),
            "grid.lap.gbps_computed": _ratio(16.0 * box, lap_s) / 1e9,
            "grid.gradient.calls": n("grid.gradient"),
            "grid.gradient.s": s("grid.gradient"),
            "grid.poisson.calls": n("grid.poisson"),
            "grid.poisson.s": s("grid.poisson"),
            "grid.mask.s": s("grid.mask"),
            "kernel.evolve.s": s("kernel.evolve"),
            "kernel.evolve.steps": float(evolve_steps[row]),
            "kernel.evolve.self_s": own_s("kernel.evolve"),
            "kernel.checks.s": s("kernel.checks"),
            "rough.solve.s": s("rough.solve"),
            "rough.solve.steps": c("rough.solve", "steps"),
            "rough.solve.self_s": own_s("rough.solve"),
            "rough.solve.dt_over_limit": _ratio(
                c("rough.solve", "dt_over_limit"), n("rough.solve")),
            "rough.checks.s": s("rough.checks"),
            "norms.oscillation.calls": n("norms.oscillation"),
            "norms.oscillation.s": s("norms.oscillation"),
        }
        for solver in ("skt", "quad", "general"):
            name = f"systems.{solver}"
            m[f"{name}.s"] = s(name)
            m[f"{name}.steps"] = c(name, "steps")
            m[f"{name}.self_s"] = own_s(name)
        m.update({
            "systems.aux.s": s("systems.aux"),
            "systems.reports.s": s("systems.reports"),
            "systems.structural.s": s("systems.structural"),
            "systems.clipped_mass": sum(c(f"systems.{k}", "clipped_mass")
                                        for k in ("skt", "quad", "general")),
            "interp.check.s": s("interp.check"),
            "interp.check.self_s": own_s("interp.check"),
            "interp.covering.s": s("interp.covering"),
            "interp.radii.s": s("interp.radii"),
            "interp.cutball.s": s("interp.cutball"),
            "interp.pair.s": s("interp.pair"),
            "interp.n_balls": c("interp.check", "n_balls"),
            "harness.run.s": s("harness.run"),
            "harness.run.self_s": own_s("harness.run"),
            "harness.calibration.s": s("harness.calibration"),
            "report.emit.s": s("report.emit"),
            "report.bytes": c("report.emit", "bytes"),
            "fieldio.save.s": s("fieldio.save"),
            "fieldio.load.s": s("fieldio.load"),
            "fieldio.bytes": c("fieldio.save", "bytes"),
        })
        passes.append(m)
    setup = {
        "grid.mask.setup_s": col(tot, "grid.mask", 0),
        "harness.calibration.setup_s": col(tot, "harness.calibration", 0),
    }
    return passes, setup

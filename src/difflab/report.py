"""Report containers and emission.

Every check returns an :class:`EstimateReport` holding the measured quantity
(lhs), the bound it is compared against (rhs), the margin, and enough context
(params, grid) to rerun it; a row passes iff lhs <= rhs, so each check
prints as rhs the value it gates.  A :class:`RunReport` bundles the reports
of one experiment together with the echoed config.

Emission is deterministic: identical config and seed must produce
byte-identical files.  Wall time is therefore kept out of the emitted payload
unless explicitly requested.  The JSON is strict: inf, -inf and nan are
spelled "inf", "-inf" and "nan".
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

SCHEMA = "difflab-report/1"


@dataclass
class EstimateReport:
    check: str
    lhs: float
    rhs: float
    passed: bool | None = None      # derived: lhs <= rhs
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed is None:
            self.passed = bool(self.lhs <= self.rhs)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "params": self.params,
            "grid": self.grid,
            "pass": self.passed,
            "details": self.details,
        }


@dataclass
class RunReport:
    config: dict
    checks: list
    wall_time: float = 0.0

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema": SCHEMA,
            "config": self.config,
            "pass": self.passed(),
            "checks": [c.to_dict() for c in self.checks],
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(jsonable(self.to_dict(include_timing)),
                          sort_keys=True, indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "lhs", "rhs", "margin", "pass",
                         "params", "grid"])
        for c in self.checks:
            writer.writerow([
                c.check, repr(c.lhs), repr(c.rhs), repr(c.margin),
                int(c.passed),
                *(json.dumps(jsonable(x), sort_keys=True, allow_nan=False)
                  for x in (c.params, c.grid)),
            ])
        return buf.getvalue()


def fit_constant(lhs: float, core: float, C: float | None = None):
    """The constant C of lhs <= C core, fitted as lhs/core when None, and
    the gated rhs C core (1 + 1e-9): its headroom covers the rounding of
    (lhs/core) core, so a calibration row passes by construction.  A zero
    core fits nothing: C is 1 and the rhs 0, so a positive lhs fails."""
    if C is None:
        C = lhs / core if core > 0 else 1.0
    return C, C * core * (1 + 1e-9)


def jsonable(obj):
    """Copy of nested dicts/lists with numpy scalars made Python numbers and
    inf, -inf and nan spelled "inf", "-inf" and "nan", ready for json."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def emit(report: RunReport, out_dir, stem: str = "report",
         include_timing: bool = False) -> list:
    """Write ``<stem>.json`` and ``<stem>.csv`` and return their paths."""
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    js, csv = out / f"{stem}.json", out / f"{stem}.csv"
    js.write_text(report.to_json(include_timing=include_timing))
    csv.write_text(report.to_csv())
    return [js, csv]

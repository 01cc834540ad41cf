"""Report containers and emission.

Every check returns an :class:`EstimateReport` holding the measured quantity
(lhs), the bound it is compared against (rhs), the margin, and enough context
(params, grid) to rerun it.  A :class:`RunReport` bundles the reports of one
experiment together with the echoed config.

Emission is deterministic: identical config and seed must produce
byte-identical files.  Wall time is therefore kept out of the emitted payload
unless explicitly requested.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

SCHEMA = "difflab-report/1"


@dataclass
class EstimateReport:
    check: str
    lhs: float
    rhs: float
    passed: bool
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

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
        return json.dumps(self.to_dict(include_timing=include_timing),
                          sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "lhs", "rhs", "margin", "pass",
                         "params", "grid"])
        for c in self.checks:
            writer.writerow([
                c.check, repr(c.lhs), repr(c.rhs), repr(c.margin),
                int(c.passed),
                json.dumps(c.params, sort_keys=True),
                json.dumps(c.grid, sort_keys=True),
            ])
        return buf.getvalue()


def jsonable(obj):
    """Copy of nested dicts/lists with numpy scalars made Python numbers and
    infinities spelled "inf", ready for ``json.dumps``."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
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


def parse_report(text: str) -> RunReport:
    """Inverse of :meth:`RunReport.to_json` (round-trip safe); malformed
    text raises ParameterError."""
    try:
        raw = json.loads(text)
        schema = raw.get("schema") if isinstance(raw, dict) else None
        if schema != SCHEMA:
            raise ParameterError(f"unknown report schema: {schema!r}")
        checks = [
            EstimateReport(
                check=row["check"], lhs=row["lhs"], rhs=row["rhs"],
                passed=row["pass"], params=row.get("params", {}),
                grid=row.get("grid", {}), details=row.get("details", {}),
            )
            for row in raw["checks"]
        ]
        return RunReport(config=raw["config"], checks=checks,
                         wall_time=raw.get("wall_time", 0.0))
    except json.JSONDecodeError as exc:
        raise ParameterError(f"report is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise ParameterError(f"report lacks the field {exc.args[0]!r}") \
            from exc
    except TypeError as exc:
        raise ParameterError(f"report has a malformed entry: {exc}") from exc

"""Command-line front end.

``lab run config.json [--out DIR] [--seed N] [--refine K]``
    Run one experiment config; print one line per check and write
    report files when an output directory is configured.
``lab presets``
    Print the built-in experiment presets with their default configs.
``lab constants --d 2 --p inf --q 4 --a0 1.0 --c0 2.0``
    Print the closed-form constants bundle for the given exponents.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, LabError
from .harness import (ExperimentConfig, preset_config, preset_names,
                      run_experiment, run_with_refinement)
from .report import jsonable
from .rough import explicit_constants


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="structured-grid estimate laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config", help="path to a JSON config file")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="directory for report files (overrides output.dir)")
    run.add_argument("--seed", type=int, default=None, metavar="N",
                     help="override the config seed")
    run.add_argument("--refine", type=int, default=0, metavar="K",
                     help="also rerun with the mesh halved 1..K times")

    sub.add_parser("presets", help="print the built-in preset configs")

    con = sub.add_parser("constants",
                         help="print the explicit constants bundle")
    con.add_argument("--d", type=int, required=True, help="dimension")
    con.add_argument("--p", type=float, required=True,
                     help="time exponent (number or 'inf')")
    con.add_argument("--q", type=float, required=True,
                     help="space exponent (number or 'inf')")
    con.add_argument("--a0", type=float, default=1.0,
                     help="coefficient floor (default 1.0)")
    con.add_argument("--c0", type=float, default=2.0,
                     help="coefficient ratio bound (default 2.0)")
    return parser


def _print_report(report, label: str = "") -> None:
    if label:
        print(label)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"  [{status}] {c.check}: lhs={c.lhs:.6g} rhs={c.rhs:.6g}")
    print("  overall:", "PASS" if report.passed() else "FAIL")


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    data = cfg.resolved
    if args.seed is not None:
        data["seed"] = int(args.seed)
    if args.out is not None:
        data["output"]["dir"] = args.out
    cfg = ExperimentConfig(data)
    if args.refine:
        reports = run_with_refinement(cfg, args.refine)
        for k, rep in enumerate(reports):
            n = rep.config["grid"]["n"]
            _print_report(rep, label=f"level {k} (n={n}):")
    else:
        reports = [run_experiment(cfg)]
        _print_report(reports[0])
    return 0 if all(r.passed() for r in reports) else 2


def _cmd_presets(_args) -> int:
    table = {name: jsonable(preset_config(name)) for name in preset_names()}
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


def _cmd_constants(args) -> int:
    bundle = explicit_constants(args.d, args.p, args.q, args.a0, args.c0)
    print(json.dumps(jsonable(bundle.to_dict()), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "presets":
            return _cmd_presets(args)
        return _cmd_constants(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the difflab laboratory.

One workload, one fresh process:

    python3 perfbench/run.py --workload march --seed 0 --seconds 20 --trace 0

Every workload, each in its own process, untraced and then traced, with a
summary table at the end:

    python3 perfbench/run.py --seed 0 --seconds 20

Load model: a closed loop with one client.  Cases run back to back, each
after the previous verdict, in passes of a fixed composition (see
``workloads.py``); passes repeat for about ``--seconds`` seconds, and at
least once.  Every
output is checked: a case fails when a verdict is FAIL or when it raises,
and any failure makes the command exit non-zero.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each pass
twice, untraced and then traced, requires byte-identical report payloads,
and prints the per-layer metrics (medians over traced passes), the layer
probes and the tracing overhead.  Layer busy and self times are seconds
per pass (``*.s``, ``*.self_s``); a layer the workload never calls reads
0.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

# fixed BLAS/OpenMP thread count, set before numpy is imported; the heavy
# work is elementwise numpy and single-threaded either way
PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("march", "sweep", "interp")
SETUP_SAMPLES = 3        # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 170

# unit of a per-layer metric, by the last part of its name
UNITS = {"s": "s", "self_s": "s", "setup_s": "s", "calls": "count",
         "steps": "count", "n_balls": "count", "times_mismatch": "count",
         "ns_per_node": "ns/node", "active_frac": "ratio",
         "dt_over_limit": "ratio", "gbps_computed": "GB/s",
         "bytes": "bytes", "clipped_mass": "mass"}


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    plan: list
    wall: float = 0.0
    failed: int = 0
    latencies: list = field(default_factory=list)
    payloads: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


def run_pass(workload, plan, tracer=None, case_pass=None, pass_index=0):
    """Take every case of ``plan`` through solve and checks, back to back."""
    out = PassResult(plan)
    workload.begin_pass()
    start = time.perf_counter()
    for kind, seed in plan:
        if tracer is not None:
            tracer.case_id = len(case_pass)
            case_pass.append(pass_index)
        t = time.perf_counter()
        try:
            report, counters = workload.run_case(kind, seed)
            ok = report.passed()
            payload = report.to_json()
        except Exception as exc:  # a raising case is a failed case
            ok, counters = False, {}
            payload = f"raised {type(exc).__name__}: {exc}"
            print(f"case {workload.name}/{kind} seed {seed} {payload}",
                  file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        out.latencies.append(time.perf_counter() - t)
        if not ok:
            out.failed += 1
            print(f"case {workload.name}/{kind} seed {seed} FAILED",
                  file=sys.stderr)
        out.payloads.append(payload)
        for key, val in counters.items():
            out.counters[key] = out.counters.get(key, 0) + val
    out.wall = time.perf_counter() - start
    if tracer is not None:
        tracer.case_id = -1          # spans outside a case count as set-up
    return out


def warm_up(workload, seed) -> int:
    """Build the fixtures and run one case per kind; returns failures."""
    workload.setup()
    failed = 0
    for kind, case in workload.warmup_plan(seed):
        report, _ = workload.run_case(kind, case, warmup=True)
        if not report.passed():
            failed += 1
            print(f"warm-up {workload.name}/{kind} seed {case} FAILED",
                  file=sys.stderr)
    return failed


# ---------------------------------------------------------------------------
# run record


def _read(path) -> str:
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    # --git-dir keeps git from searching the directories above the checkout
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
            _read(index / "size")
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_pinned": PINNED_THREADS,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# one workload


def setup_sample(name: str, seed: int) -> float:
    """Set-up time of a fresh process: script start to first timed case."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up sample of {name} exited "
                           f"{proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_only=False) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import difflab  # noqa: F401  (loaded before the tracer scans it)
    import workloads

    # set-up samples run in child processes; they must not share files
    scratch = SCRATCH / (f"{name}-setup" if setup_only else name)
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name](scratch)
    try:
        warm_failed = warm_up(workload, seed)
        own_setup = time.perf_counter() - _T0
        if setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 1 if warm_failed else 0
        return _measure(workload, seed, seconds, tracer, warm_failed,
                        own_setup)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(workload, seed, seconds, tracer, warm_failed, own_setup) -> int:
    name = workload.name
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    case_pass: list[int] = []
    mismatched = 0
    start = time.perf_counter()
    p = 0
    while True:
        plan = workload.plan(seed, p)
        if tracer is None:
            untraced.append(run_pass(workload, plan))
        else:
            tracer.uninstall()
            ref = run_pass(workload, plan)
            tracer.install()
            got = run_pass(workload, plan, tracer, case_pass, len(traced))
            mismatched += sum(a != b for a, b in zip(ref.payloads,
                                                     got.payloads))
            untraced.append(ref)
            traced.append(got)
        p += 1
        # stop when another pass would end nearer past ``seconds`` than
        # this one ends before it
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / p >= seconds:
            break

    runs = untraced + traced
    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(r.failed for r in runs)
    walls = [r.wall for r in untraced]
    latencies = [x for r in untraced for x in r.latencies]
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(tracer is not None), **machine(),
              "samples": {"passes": len(walls), "cases": len(latencies)}}
    lines = []
    if tracer is None:
        setups = [own_setup] + [setup_sample(name, seed)
                                for _ in range(SETUP_SAMPLES - 1)]
        record["samples"].update({"setup": len(setups),
                                  "case_p50_s": len(latencies)})
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "case_p50_s": metric(statistics.median(latencies), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        from probes import run_probes
        from tracer import layer_metrics
        tracer.uninstall()
        per_pass, setup = layer_metrics(tracer, case_pass)
        for m, r in zip(per_pass, traced):
            m["fieldio.times_mismatch"] = r.counters.get(
                "fieldio.times_mismatch", 0)
        metrics = {key: metric(statistics.median(m[key] for m in per_pass),
                               UNITS[key.rsplit(".", 1)[-1]])
                   for key in per_pass[0]}
        for key, val in setup.items():
            metrics[key] = metric(val, "s")
        metrics["trace.overhead_frac"] = metric(
            statistics.median(r.wall for r in traced)
            / statistics.median(walls) - 1.0, "ratio")
        for key, (val, unit) in run_probes(seed, workload.scratch).items():
            metrics[key] = metric(val, unit)
        record["samples"].update({"traced_passes": len(traced),
                                  "spans": len(tracer.start),
                                  "payload_mismatches": mismatched})
        if tracer.missing:
            record["untraced_targets"] = tracer.missing
        SCRATCH.mkdir(parents=True, exist_ok=True)
        tracer.save(SCRATCH / f"spans-{name}.npz")

    correct = failed == 0 and warm_failed == 0 and mismatched == 0
    lines.insert(0, "record " + json.dumps(record, sort_keys=True))
    for key, m in metrics.items():
        lines.append(f"metric {name} {key} = {m['value']!r} {m['unit']}")
    lines.append(f"metric {name} failed_frac = {failed / attempted!r} ratio "
                 f"({failed} of {attempted} cases)")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process, untraced then traced."""
    rows, correct, attempted, failed, merged = [], True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S + 4 * seconds)
            sys.stderr.write(proc.stderr)
            out = proc.stdout.strip().splitlines()
            print("\n".join(out[:-1]))
            result = json.loads(out[-1]) if out else {}
            ok = proc.returncode == 0 and result.get("correct", False)
            correct &= ok
            attempted += result.get("attempted", 0)
            failed += result.get("failed", 0)
            for key, m in result.get("metrics", {}).items():
                merged[f"{name}.{key}"] = m
                rows.append((name, key, m["value"], m["unit"]))
    width = max(len(r[1]) for r in rows) if rows else 10
    print(f"\n{'workload':8}  {'metric':{width}}  value")
    for name, key, val, unit in rows:
        print(f"{name:8}  {key:{width}}  {val:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "difflab" / "__init__.py").is_file():
        print(f"perfbench: no difflab package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), setup_only=args.setup_only)


if __name__ == "__main__":
    sys.exit(main())

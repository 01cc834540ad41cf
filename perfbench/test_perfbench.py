"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import difflab  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds a child [1, 4] (with a grandchild [2, 3]) and two
    # overlapping children [5, 9] and [8, 9.5]: covered 3 + 4.5 = 7.5
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 9.5]
    parent = [-1, 0, 1, 0, 0]
    got = self_times(start, end, parent)
    assert np.allclose(got, [2.5, 2.0, 1.0, 4.0, 1.5])


def test_tracer_records_nesting_and_self_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    tracer.case_id = 7
    outer()
    arrays = tracer.arrays()
    assert [tracer.names[i] for i in arrays["name"]] == \
        ["outer", "inner", "inner"]
    assert list(arrays["parent"]) == [-1, 0, 0]
    assert list(arrays["case"]) == [7, 7, 7]
    own = self_times(arrays["start"], arrays["end"], arrays["parent"])
    dur = arrays["end"] - arrays["start"]
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-12)


def test_tracer_patches_every_binding_and_restores_them():
    bindings = [(difflab.grid, "gradient"), (difflab.interp, "gradient"),
                (difflab.systems, "gradient"), (difflab, "gradient"),
                (difflab.norms, "oscillation"),
                (difflab.rough, "oscillation")]
    before = [getattr(mod, attr) for mod, attr in bindings]
    method = difflab.DomainMask.laplacian_full
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, attr), orig in zip(bindings, before):
            assert getattr(mod, attr) is not orig
            assert getattr(mod, attr).__wrapped__ is orig
        assert difflab.DomainMask.laplacian_full is not method
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert [getattr(mod, attr) for mod, attr in bindings] == before
    assert difflab.DomainMask.laplacian_full is method


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_case_seeds_not_composition(name):
    wl = workloads.WORKLOADS[name](HERE)
    a, b = wl.plan(1, 0), wl.plan(2, 0)
    assert [k for k, _ in a] == [k for k, _ in b] == list(wl.kinds)
    assert all(sa != sb for (_, sa), (_, sb) in zip(a, b))
    assert wl.plan(1, 0) == a                       # reproducible
    assert [s for _, s in wl.plan(1, 1)] != [s for _, s in a]
    assert [k for k, _ in wl.warmup_plan(1)] == \
        [k for k, _ in wl.warmup_plan(2)]


def _sweep_result(capsys):
    code = run.run_workload("sweep", seed=0, seconds=0.01, trace=False)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_doctored_fail_verdict_raises_failed_frac_and_exit_code(
        monkeypatch, capsys):
    # the extra set-ups run in child processes and do not see the doctoring
    monkeypatch.setattr(run, "setup_sample", lambda name, seed: 1.0)
    code, healthy = _sweep_result(capsys)
    assert code == 0 and healthy["correct"] and healthy["failed"] == 0

    original = workloads.Sweep.run_case

    def doctored(self, kind, seed, warmup=False):
        report, counters = original(self, kind, seed, warmup)
        if kind == "pair1d" and not warmup:
            report.checks[0].passed = False
        return report, counters

    monkeypatch.setattr(workloads.Sweep, "run_case", doctored)
    code, result = _sweep_result(capsys)
    per_pass = workloads.Sweep.kinds.count("pair1d")
    assert code != 0 and not result["correct"]
    assert result["failed"] == per_pass
    assert result["failed"] / result["attempted"] > 0


def test_exits_non_zero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

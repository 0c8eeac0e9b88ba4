"""The benchmark's own output checks pass on one round of every workload.

A call that fails its check in `perfbench/workloads.py` counts against the
benchmark run, so a change that breaks one fails here first.  The traced
run is also started end to end, as `python perfbench/run.py` would be.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


# spectral evaluates so:5 at s = 1 on purpose: the degenerate connection path
@pytest.mark.filterwarnings("ignore::rankone.hyper.DegenerateParamWarning")
@pytest.mark.parametrize("name", ["mc-ball", "mc-sweep", "spectral"])
def test_first_round_passes_its_checks(workloads, name):
    round_ = next(workloads.stream(name, SEED))
    outs = [op.call() for op in round_]
    failures = [reason for op, out in zip(round_, outs) if (reason := op.check(out)) is not None]
    if name in workloads.MC_WORKLOADS:
        for op in workloads.extra_checks(round_[0], outs[0], SEED):
            reason = op.check(op.call())
            if reason is not None:
                failures.append(reason)
    assert failures == []


@pytest.mark.parametrize("name", ["mc-ball", "spectral"])
def test_traced_run_ends_correct(name):
    # one traced second of the workload, about 1.3 s each; mc-ball's spans
    # must account for nearly all of its wall time
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", name,
         "--seconds", "1", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    if name == "mc-ball":
        assert result["metrics"]["trace.self_coverage"]["value"] >= 0.95


def test_untraced_run_ends_correct():
    # the way the benchmark itself runs: tracing off, here one second of
    # the mc-sweep workload
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "mc-sweep",
         "--seconds", "1", "--trace", "0"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr

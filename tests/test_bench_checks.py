"""The benchmark's own output checks pass on one round of every workload.

A call that fails its check in `perfbench/workloads.py` counts against the
benchmark run, so a change that breaks one fails here first.
"""

import importlib
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

"""The benchmark's tracer still finds every rankone name it wraps.

`perfbench/spans.py` looks each traced callable up by name and fails
with KeyError when one is deleted or renamed, so a rename that breaks
the per-layer benchmark fails here too.
"""

import importlib
from pathlib import Path

import numpy as np

from rankone import ballavg, hyper, model, spherical, surface

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (
    ballavg,
    hyper,
    model,
    spherical,
    surface,
    ballavg.VolumeProfile,
    surface.CuspIndicator,
    surface.DiskIndicator,
    surface.ConstantObservable,
)


def test_tracer_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = [dict(vars(owner)) for owner in OWNERS]

    def replaced():
        return [
            (owner, name)
            for owner, saved in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if saved.get(name) is not value
        ]

    with spans.patched(spans.Tracer()):
        wrapped = replaced()
        assert (surface, "build_volume_profile") in wrapped
        assert (ballavg.VolumeProfile, "sample_radius") in wrapped
        assert (surface, "_reduce_batch") in wrapped
    assert replaced() == []
    assert [set(vars(owner)) for owner in OWNERS] == [set(saved) for saved in before]


def test_tracer_sees_every_point_once(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    obs = surface.CuspIndicator(2.0)
    untraced = surface.mc_average(6.0, 20000, obs, 1)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        traced = surface.mc_average(6.0, 20000, obs, 1)
    # the chunk runs in blocks; together they reduce each sample once
    reduced = [span.counts["points"] for span in tracer.spans if span.name == "surface.reduce"]
    assert sum(reduced) == 20000
    assert traced.estimate.hex() == untraced.estimate.hex()
    assert traced.standard_error.hex() == untraced.standard_error.hex()


def test_tracer_regions_match_engine(monkeypatch):
    # hyper.<region>.* metrics are labelled by the tracer's own copy of the
    # region cutoffs.  gauss_2f1_neg switches only at _PFAFF_MAX, which the
    # tracer must share; its "direct" label (|x| <= 1/2) marks calls that
    # lie wholly inside the Pfaff region.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans._PFAFF_MAX == hyper._PFAFF_MAX
    assert 0.0 < spans._DIRECT_MAX < hyper._PFAFF_MAX
    assert not hasattr(hyper, "_DIRECT_MAX")


def test_tracer_sees_a_reports_batched_2f1(monkeypatch):
    # a model report evaluates every component's psi in one 2F1 call over
    # its grid; --trace 1 must still see that call as a hyper span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    spec, f = workloads._reference_spectrum(np.random.default_rng(1))
    grid = np.array([10.0, 20.0, 40.0])
    tracer = spans.Tracer()
    with spans.patched(tracer):
        model.direction_convergence(spec, f, grid)
    kernels = [span for span in tracer.spans if span.name == "hyper"]
    assert [span.counts["points"] for span in kernels] == [grid.size]
    assert kernels[0].counts["region"] == "connection"

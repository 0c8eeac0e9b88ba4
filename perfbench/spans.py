"""In-memory spans around the calls into each rankone layer.

A span records a name, start, end, its parent span and the id of the
top-level call it belongs to, plus a few counts taken at the same
boundary (points evaluated, radii drawn, 2F1 region).  Nothing is
written while the run is going; the spans are summarised at the end.

`patched` installs the wrappers at the names the calling code looks the
callables up by and restores the originals on exit, so rankone itself is
never edited and untraced runs execute the unmodified functions.
"""

from __future__ import annotations

import functools
import time
import warnings
from contextlib import contextmanager

import numpy as np

from rankone import ballavg, hyper, model, spherical, surface

# 2F1 regions by |x|, as documented in rankone.hyper.
_DIRECT_MAX = 0.5
_PFAFF_MAX = 3.0
REGIONS = ("direct", "pfaff", "connection")


class Span:
    __slots__ = ("name", "start", "end", "parent", "call_id", "counts")

    def __init__(self, name, start, parent, call_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call_id = call_id
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans of one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        call_id = self.spans[parent].call_id if parent is not None else index
        record = Span(name, time.perf_counter(), parent, call_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record.counts
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def summary(self):
        """Calls, self time and summed counts per span name.

        A span's self time is its duration minus its direct children's.
        Region-pure 2F1 calls are also summed under "hyper.<region>".
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        totals = {}
        for s, self_s in zip(self.spans, own):
            names = [s.name]
            if s.counts.get("region") in REGIONS:
                names.append(f"{s.name}.{s.counts['region']}")
            for name in names:
                entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
                entry["calls"] += 1
                entry["self_s"] += self_s
                for key, value in s.counts.items():
                    if isinstance(value, int):
                        entry[key] = entry.get(key, 0) + value
        return totals


def _region(x) -> str:
    ax = np.abs(np.atleast_1d(np.asarray(x, dtype=np.float64)))
    if ax.size == 0:
        return "mixed"
    if np.max(ax) <= _DIRECT_MAX:
        return "direct"
    if np.min(ax) > _DIRECT_MAX and np.max(ax) <= _PFAFF_MAX:
        return "pfaff"
    if np.min(ax) > _PFAFF_MAX:
        return "connection"
    return "mixed"


def _wrap(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as counts:
            if count is not None:
                count(counts, args)
            return fn(*args, **kwargs)

    return traced


def _wrap_hyper(tracer, fn):
    degenerate = getattr(hyper, "DegenerateParamWarning", None)

    @functools.wraps(fn)
    def traced(a, b, c, x, *args, **kwargs):
        with tracer.span("hyper") as counts:
            counts["points"] = int(np.size(x))
            counts["region"] = _region(x)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(a, b, c, x, *args, **kwargs)
            counts["degenerate"] = int(
                degenerate is not None and any(issubclass(w.category, degenerate) for w in caught)
            )
            return out

    return traced


def _points(index):
    def count(counts, args):
        counts["points"] = int(np.size(args[index]))

    return count


@contextmanager
def patched(tracer: Tracer):
    """Route every traced callable through a span for the duration of the block.

    Each callable is replaced at the name its caller looks it up by: the
    module global for functions, the class attribute for methods.
    """
    targets = [
        (spherical, "gauss_2f1_neg", "hyper", None),
        (ballavg, "spherical_fn_many", "spherical", _points(2)),
        (model, "psi_on_grid", "ballavg.psi_on_grid", None),
        (surface, "build_volume_profile", "ballavg.profile", None),
        # The profile verifies itself against ball_volume, looked up in ballavg.
        (ballavg, "ball_volume", "ballavg.ball_volume", None),
        (ballavg.VolumeProfile, "sample_radius", "ballavg.sample_radius", _points(2)),
        (surface, "_reduce_batch", "surface.reduce", _points(0)),
    ]
    for cls in (surface.CuspIndicator, surface.DiskIndicator, surface.ConstantObservable):
        targets.append((cls, "eval_batch", "surface.observable", None))

    saved = []
    try:
        for owner, attr, name, count in targets:
            original = vars(owner)[attr]
            if name == "hyper":
                wrapper = _wrap_hyper(tracer, original)
            else:
                wrapper = _wrap(tracer, name, original, count)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

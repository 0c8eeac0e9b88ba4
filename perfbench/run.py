#!/usr/bin/env python3
"""Benchmark of the rankone Python API.

    python3 perfbench/run.py --workload mc-ball --seed 1 --seconds 30 --trace 0

Run from the repository root.  It imports rankone from ./src, runs the
workload's calls serially in this one process for --seconds seconds and
checks every output.  With --trace 0 it reports the end-to-end metrics,
with every time scaled to a nominal machine speed (see reference.py);
with --trace 1 it runs the same calls with a span around each layer
boundary and reports per-layer metrics instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc-ball", "mc-sweep", "spectral")
SETUP_REPS = 5
SETUP_TIMEOUT_S = 60
SETUP_REFERENCE_REPS = 5
# On mc-ball the benchmark does little besides calling rankone, so the
# spans' self times must account for at least this share of the traced wall.
MIN_SELF_COVERAGE = 0.95
# op_s.p50 and op_s.tail are medians over consecutive blocks of whole
# rounds.  A burst of interference on a shared machine then moves one block,
# and the tail, taken within a block, is not set by a few spikes alone.
BLOCKS = 5
MIN_BLOCK_CALLS = 100
# Per-layer metric: (name, span name, summed count, unit).
PER_LAYER = (
    ("hyper.calls", "hyper", "calls", "count"),
    ("hyper.points", "hyper", "points", "count"),
    ("hyper.self_s", "hyper", "self_s", "s"),
    ("hyper.degenerate_calls", "hyper", "degenerate", "count"),
    ("spherical.calls", "spherical", "calls", "count"),
    ("spherical.points", "spherical", "points", "count"),
    ("spherical.self_s", "spherical", "self_s", "s"),
    ("ballavg.psi_on_grid.self_s", "ballavg.psi_on_grid", "self_s", "s"),
    ("ballavg.ball_volume.calls", "ballavg.ball_volume", "calls", "count"),
    ("ballavg.ball_volume.self_s", "ballavg.ball_volume", "self_s", "s"),
    ("ballavg.profile.calls", "ballavg.profile", "calls", "count"),
    ("ballavg.profile.self_s", "ballavg.profile", "self_s", "s"),
    ("ballavg.sample_radius.draws", "ballavg.sample_radius", "points", "count"),
    ("ballavg.sample_radius.self_s", "ballavg.sample_radius", "self_s", "s"),
    ("surface.reduce.points", "surface.reduce", "points", "count"),
    ("surface.reduce.self_s", "surface.reduce", "self_s", "s"),
    ("surface.observable.self_s", "surface.observable", "self_s", "s"),
    ("surface.mc_average.self_s", "surface.mc_average", "self_s", "s"),
    ("model.self_s", "model", "self_s", "s"),
)


def _single_threaded_env(env) -> None:
    # One process generates the load; numerical libraries start no threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"


def _import_rankone():
    init = SRC / "rankone" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: rankone sources not found at {init.parent}")
    sys.path.insert(0, str(SRC))
    import rankone

    if Path(rankone.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported rankone from {rankone.__file__}, not {init}")
    return rankone


def _setup_child(workload: str) -> None:
    start = time.perf_counter()
    _import_rankone()
    import workloads

    workloads.warmup(workload)
    elapsed = time.perf_counter() - start
    import reference

    reference.kernel()  # warm
    print(repr(elapsed), repr(statistics.fmean(reference.time_kernel(SETUP_REFERENCE_REPS))))


def measure_setup(workload: str) -> list:
    """`import rankone` plus the warm-up call, each in a fresh interpreter.

    Returns (measured s, reference kernel s) per interpreter.
    """
    env = dict(os.environ)
    _single_threaded_env(env)
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child", workload],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up run failed:\n{proc.stderr}")
        elapsed, kernel_s = proc.stdout.split()[-2:]
        times.append((float(elapsed), float(kernel_s)))
    return times


class Outcome:
    """Per-call times and failures of one pass over whole rounds."""

    def __init__(self, speed=None):
        self.speed = speed  # a reference.Speedometer ticked before each timed call, or None
        self.calls = []  # timed calls: (round, start, elapsed s, samples of a correct call or 0)
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.rounds = 0
        self.wall = 0.0
        self.first = None

    def execute(self, op, tracer=None, timed=True):
        if timed and self.speed is not None:
            self.speed.tick()
        start = time.perf_counter()
        out = None
        try:
            if tracer is None:
                out = op.call()
            else:
                with tracer.span(op.layer) as counts:
                    counts["points"] = op.samples
                    out = op.call()
            elapsed = time.perf_counter() - start
            reason = op.check(out)
        except Exception as exc:  # a failed call is counted, and the run goes on
            elapsed = time.perf_counter() - start
            reason = f"{op.name} raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)
        if timed:
            self.calls.append((self.rounds, start, elapsed, 0 if reason else op.samples))
        if self.first is None:
            self.first = (op, out)

    def run(self, rounds, seconds=None, max_rounds=None, tracer=None):
        start = time.perf_counter()
        for round_ in rounds:
            for op in round_:
                self.execute(op, tracer)
            self.rounds += 1
            if max_rounds is not None and self.rounds >= max_rounds:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        self.wall = time.perf_counter() - start
        return self


def tail_of(times):
    """Highest percentile with at least ten calls beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _blocks(calls, rounds):
    """Call times in up to BLOCKS groups of whole rounds, about MIN_BLOCK_CALLS or more each."""
    count = max(1, min(BLOCKS, len(calls) // MIN_BLOCK_CALLS))
    blocks = [[] for _ in range(count)]
    for round_, elapsed, _ in calls:
        blocks[round_ * count // rounds].append(elapsed)
    return blocks


def _timings(calls, rounds):
    """Throughput and per-call figures of (round, elapsed s, samples) records."""
    busy = sum(elapsed for _, elapsed, _ in calls)
    blocks = _blocks(calls, rounds)
    tails = [tail_of(block) for block in blocks]
    return {
        "ops_per_s": sum(1 for *_, samples in calls if samples) / busy,
        "samples_per_s": sum(samples for *_, samples in calls) / busy,
        "op_s.p50": statistics.median(statistics.median(block) for block in blocks),
        "op_s.tail": statistics.median(value for value, _ in tails),
        "busy": busy,
        "blocks": len(blocks),
        "percentile": tails[0][1],
    }


def end_to_end(workload, seed, seconds, workloads):
    from reference import REFERENCE_S, Speedometer

    setup = measure_setup(workload)
    workloads.warmup(workload)
    speed = Speedometer()
    outcome = Outcome(speed).run(workloads.stream(workload, seed), seconds=seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload in workloads.MC_WORKLOADS:
        for op in workloads.extra_checks(*outcome.first, seed):
            outcome.execute(op, timed=False)

    measured = _timings([(r, elapsed, n) for r, _, elapsed, n in outcome.calls], outcome.rounds)
    # The reported times are at the nominal machine speed (see reference.py).
    normal = _timings(
        [(r, elapsed * speed.scale_at(start), n) for r, start, elapsed, n in outcome.calls],
        outcome.rounds,
    )
    metrics = {
        "setup_s": _metric(statistics.median(t * REFERENCE_S / kernel_s for t, kernel_s in setup), "s"),
        "ops_per_s": _metric(normal["ops_per_s"], "1/s"),
        "samples_per_s": _metric(normal["samples_per_s"], "1/s"),
        "op_s.p50": _metric(normal["op_s.p50"], "s"),
        "op_s.tail": _metric(normal["op_s.tail"], "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    notes = {name: f"measured {measured[name]:.6g}" for name in ("ops_per_s", "samples_per_s", "op_s.p50")}
    notes["setup_s"] = (f"median of {len(setup)} fresh interpreters; "
                        f"measured {statistics.median(t for t, _ in setup):.6g}")
    notes["ops_per_s"] += (f"; {len(outcome.calls)} calls, {outcome.rounds} rounds, "
                           f"{measured['busy']:.3f} s inside rankone")
    notes["op_s.p50"] += f"; median over {normal['blocks']} blocks"
    notes["op_s.tail"] = (f"measured {measured['op_s.tail']:.6g}; p{normal['percentile']:.1f} "
                          f"within each block, median over {normal['blocks']} blocks")
    print(f"reference kernel: mean {statistics.fmean(speed.times) * 1e3:.4f} ms over "
          f"{len(speed.times)} timings; nominal {REFERENCE_S * 1e3:g} ms")
    print(f"fail_frac {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} calls)")
    return outcome, metrics, notes, []


def per_layer(workload, seed, seconds, workloads):
    from spans import REGIONS, Tracer, patched

    workloads.warmup(workload)
    tracer = Tracer()
    with patched(tracer):
        traced = Outcome().run(workloads.stream(workload, seed), seconds=seconds / 2, tracer=tracer)
    untraced = Outcome().run(workloads.stream(workload, seed), max_rounds=traced.rounds)
    if workload in workloads.MC_WORKLOADS:
        for op in workloads.extra_checks(*traced.first, seed):
            traced.execute(op, timed=False)
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.reasons += untraced.reasons

    layers = tracer.summary()

    def total(name, key):
        return layers.get(name, {}).get(key, 0)

    def rate(name, key):
        busy = total(name, "self_s")
        return total(name, key) / busy if busy > 0.0 else 0.0

    metrics = {metric: _metric(total(name, key), unit) for metric, name, key, unit in PER_LAYER}
    for region in REGIONS:
        metrics[f"hyper.{region}.points_per_s"] = _metric(rate(f"hyper.{region}", "points"), "1/s")
    metrics["ballavg.sample_radius.draws_per_s"] = _metric(rate("ballavg.sample_radius", "points"), "1/s")
    by_region = {f"hyper.{region}" for region in REGIONS}
    self_sum = sum(entry["self_s"] for name, entry in layers.items() if name not in by_region)
    metrics.update({
        "trace.wall_s": _metric(traced.wall, "s"),
        "trace.untraced_wall_s": _metric(untraced.wall, "s"),
        "trace.overhead_frac": _metric(traced.wall / untraced.wall - 1.0, "ratio"),
        "trace.self_sum_s": _metric(self_sum, "s"),
        "trace.self_coverage": _metric(self_sum / traced.wall, "ratio"),
    })
    notes = {
        "trace.wall_s": f"{traced.rounds} rounds traced, then replayed untraced",
        "trace.self_coverage": "self times summed over all spans / traced wall time",
    }
    problems = []
    if workload == "mc-ball" and self_sum / traced.wall < MIN_SELF_COVERAGE:
        problems.append(
            f"self times cover {self_sum / traced.wall:.3f} of the traced wall time, "
            f"below {MIN_SELF_COVERAGE}"
        )
    return traced, metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _single_threaded_env(os.environ)
    if args.setup_child:
        _setup_child(args.setup_child)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    rankone = _import_rankone()
    import warnings

    import numpy
    import scipy
    import workloads

    degenerate = getattr(rankone.hyper, "DegenerateParamWarning", None)
    if degenerate is not None:
        warnings.simplefilter("ignore", degenerate)
    print(f"machine nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__} scipy={scipy.__version__}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    measure = per_layer if args.trace else end_to_end
    outcome, metrics, notes, problems = measure(args.workload, args.seed, args.seconds, workloads)
    for reason in (outcome.reasons + problems)[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {metric['value']:<22.10g} {metric['unit']}{note}")
    result = {
        "correct": outcome.failed == 0 and not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

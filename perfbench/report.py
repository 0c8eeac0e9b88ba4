#!/usr/bin/env python3
"""Run every workload once and print all metrics side by side.

    python3 perfbench/report.py --seed 1 --seconds 20 [--trace 1]

Each workload runs in its own `run.py` process, one after the other.  The
table lists every metric with its unit, plus `fail_frac`, which comes
from each result's failed and attempted counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc-ball", "mc-sweep", "spectral")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        results[workload] = json.loads(lines[-1])

    first = results[WORKLOADS[0]]["metrics"]
    print(f"{'metric':36s} {'unit':6s}" + "".join(f" {w:>14s}" for w in WORKLOADS))
    for name, metric in first.items():
        cells = "".join(f" {results[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS)
        print(f"{name:36s} {metric['unit']:6s}{cells}")
    cells = "".join(f" {results[w]['failed'] / results[w]['attempted']:14.6g}" for w in WORKLOADS)
    print(f"{'fail_frac':36s} {'ratio':6s}{cells}")
    correct = all(r["correct"] for r in results.values())
    print("all outputs correct" if correct else "SOME OUTPUTS WRONG")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to 20-40% faster or slower for
minutes at a time, as other tenants come and go, and within such an
episode the speed flips between states every few milliseconds.  A 30-s
run then lands in one episode, and runs of the same code disagree by more
than the benchmark's bounds.  The benchmark therefore times this kernel
between its calls into rankone, at the same moments and on the same core,
and reports every end-to-end time at the speed of a nominal machine on
which the kernel takes REFERENCE_S:

    normalised time = measured time * REFERENCE_S / mean(nearby kernel times)

The mean, not the median, because a call of a second spends time in every
state, in proportion, as the kernel timings together do.  The kernel does
not touch rankone, so a change to rankone moves the normalised figures
exactly as it moves the measured ones.  Its mix -- a Python loop over
numpy array terms, scipy.special calls and scalar Python arithmetic -- is
that of the spectral kernels.  Vectorised code such as the MC sampler
gains less than the kernel in a fast episode, so on mc-ball the
normalisation removes only part of the spread; README.md gives figures.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
from scipy import special

# The kernel runs REPS times whenever EVERY_S has passed since it last ran.
EVERY_S = 0.25
REPS = 3
# Kernel time on the nominal machine; about its mean on a 2.1 GHz Xeon VM.
REFERENCE_S = 2.0e-3
# A measured time is scaled by the mean of this many kernel timings on
# each side of it, so an episode that starts mid-run is tracked.
NEIGHBOURS = 12

_X = np.linspace(0.01, 0.9, 2001)


def kernel() -> float:
    """Truncated 2F1 series on a grid with gamma prefactors, plus a scalar sum."""
    acc = 0.0
    for k in range(6):
        a, b, c = 0.3 + 0.1 * k, 1.2, 2.1
        term = np.ones_like(_X)
        total = np.ones_like(_X)
        for n in range(40):
            term = term * ((a + n) * (b + n) / ((c + n) * (n + 1))) * _X
            total += term
        acc += float(np.sum(total)) * special.gamma(c) / (special.gamma(a) * special.gamma(b))
        s = 0.0
        for i in range(1, 400):
            s += math.sin(i * 0.01) / i
        acc += s
    return acc


def time_kernel(reps: int) -> list:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


class Speedometer:
    """Kernel timings taken between the benchmark's calls, at most every EVERY_S."""

    def __init__(self):
        kernel()  # warm
        self.at = []  # perf_counter() when each kernel timing ended
        self.times = []
        self._last = -math.inf

    def tick(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            for elapsed in time_kernel(REPS):
                self.times.append(elapsed)
                self.at.append(time.perf_counter())
            self._last = self.at[-1]

    def scale_at(self, when: float) -> float:
        """Factor that turns a time measured at `when` into one on the nominal machine.

        It uses the mean of the NEIGHBOURS kernel timings on each side of
        `when`: four ticks, a second or more of the run, each way.
        """
        i = bisect.bisect(self.at, when)
        return REFERENCE_S / statistics.fmean(self.times[max(0, i - NEIGHBOURS):i + NEIGHBOURS])

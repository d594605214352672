"""Machine-speed calibration shared by the benchmark's processes.

On a shared host the same code runs up to 1.6x slower for stretches of a
fraction of a second to half a minute, while neighbouring tenants load the
physical core; no statistic over repeats inside one run removes a stretch
that covers the whole run. So a fixed reference kernel is timed every
CAL_EVERY_S while the workload runs, every item's latency is scaled by the
median speed of the samples within WINDOW_S of it, and the benchmark
reports seconds at the speed where the kernel takes NOMINAL_S.

The kernel is a frozen copy of the pentagon entropy computation on a
mid-size batch. Timed next to it for 150 s of such stretches (raw times
spread 2-3x), the regression slope of log item time on log kernel time was
0.83-1.07 for a lattice frontier point, lattice capacities, partition
checks, `check gain-condition` calls and a frontier sub-fan, and scaling
cut the standard deviation of log time from 0.19-0.25 to 0.09-0.14. A
Blahut-Arimoto-and-JSON kernel fitted worse (slopes 0.63-0.85). Those
fits were made with scipy's xlogy in place of the numpy logarithm below,
the same array work up to the base of the logarithm. The kernel touches
neither macfeedback nor scipy, so a change to the library, or to what it
imports, moves the scaled times as it moves the wall times.
"""

from __future__ import annotations

import math
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

CAL_EVERY_S = 0.2
WINDOW_S = 0.5
NOMINAL_S = 1.05e-3  # the kernel's best time on the 2-vCPU Xeon VM of the baseline

_rng = np.random.default_rng(0)
_PU = _rng.dirichlet(np.ones(6), size=300)
_P1 = _rng.dirichlet(np.ones(2), size=(300, 6))
_P2 = _rng.dirichlet(np.ones(2), size=(300, 6))
_W = _rng.dirichlet(np.ones(3), size=(2, 2))


def _kernel():
    j = (_PU[:, :, None, None, None] * _P1[:, :, :, None, None]
         * _P2[:, :, None, :, None] * _W[None, None])
    for axes in ((4,), (2,), (3,), (1,), (2, 4)):
        m = j.sum(axis=axes).reshape(j.shape[0], -1)
        (-(m * np.log2(np.where(m > 0, m, 1.0))).sum(axis=1)).max()
    np.sort(-_P1.reshape(300, -1), axis=1).cumsum(axis=1)


def calibrate():
    """Best of three timings of the kernel."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class Speed:
    """Samples the machine speed on a timer and scales latencies by it.

    Inside ``with speed:`` a SIGALRM timer times the calibration kernel every
    CAL_EVERY_S, between bytecodes of whatever runs, so long items are
    sampled while they run. ``overhead`` adds up the time the samples took;
    callers subtract it from the intervals they measure.
    """

    def __init__(self):
        self.samples = []  # (perf_counter time, calibration seconds)
        self.overhead = 0.0
        self.sample()

    def sample(self, *_):
        t0 = perf_counter()
        cal = calibrate()
        t1 = perf_counter()
        self.samples.append(((t0 + t1) / 2.0, cal))
        self.overhead += t1 - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, spans):
        """Each (start, end, sampling overhead) interval's work at the nominal
        speed: the median calibration of the samples within WINDOW_S of the
        interval sets the speed."""
        times = [t for t, _ in self.samples]
        out = []
        for start, end, overhead in spans:
            near = self.samples[bisect_left(times, start - WINDOW_S):
                                bisect_right(times, end + WINDOW_S)]
            out.append((end - start - overhead) * NOMINAL_S
                       / statistics.median(c for _, c in near))
        return out

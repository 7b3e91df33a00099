"""In-run measurement of the host's speed, to put run times on one scale.

Shared two-core hosts switch between speeds (about 1.6x apart on the host the
bounds were set on) for seconds to minutes at a time. That drift is larger
than the effects the benchmark must resolve, and no averaging inside a run of
a few dozen seconds removes it. So while a run measures, an interval timer
interrupts it every INTERVAL_S and times a fixed reference kernel: small numpy
vector updates and Python float arithmetic, the same mix of interpreter and
tiny-array work as an ftcbf step, but no ftcbf code, so no program change
moves it. The samples are uniform in time, so the mean of those taken while
an operation ran is the host's average slowness during it. Dividing the
operation's time by `factor = mean sample / KERNEL_REF_S` expresses it at the
reference speed.

Time spent in the kernel is kept out of every timed region by `clock()`.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.025
KERNEL_STEPS = 40
# Mean kernel time on the reference host in its fast phase (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4); only fixes the scale of normalised figures.
KERNEL_REF_S = 4.0e-4

_F = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
               [-1.0, 0.0, -1.5, 0.0], [0.0, -1.0, 0.0, -1.5]])
_K = np.full((4, 6), 0.1)
_C = np.vstack([np.eye(4), np.zeros((2, 4))])


def kernel(steps: int = KERNEL_STEPS) -> float:
    """A filter-like loop on 4-vectors; deterministic, allocation-heavy like a step."""
    x = np.zeros(4)
    y = np.linspace(-0.01, 0.01, 6)
    acc = 0.0
    for k in range(steps):
        innov = y - _C @ x * 0.02
        x = x + (_F @ x) * 0.02 + _K @ innov
        acc = 0.95 * acc + 0.05 * float(np.linalg.norm(innov)) + (k % 3) * 1e-9
    return acc


class SpeedProbe:
    """Interval-timer sampler of the reference kernel.

    Use as a context manager around the measured part of a run; only one can
    be active per process because it owns SIGALRM.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []   # kernel seconds
        self.stamps: list = []    # perf_counter at each sample, increasing
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.stamps.append(t0)
        self.spent += dt

    def clock(self) -> float:
        """perf_counter minus the time spent sampling."""
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def local_factor(self, calls: int = 3) -> float:
        """Host slowness right now, from `calls` kernel runs kept out of `clock()`."""
        t0 = time.perf_counter()
        for _ in range(calls):
            kernel()
        dt = time.perf_counter() - t0
        self.spent += dt
        return dt / calls / KERNEL_REF_S

    def factor(self) -> float:
        """Average host slowness over the sampled time, relative to the reference."""
        return float(np.mean(self.samples)) / KERNEL_REF_S if self.samples else 1.0

    def factor_between(self, start: float, end: float) -> float:
        """Host slowness over the wall interval [start, end]; the run's if unsampled."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi <= lo:
            return self.factor()
        return float(np.mean(self.samples[lo:hi])) / KERNEL_REF_S

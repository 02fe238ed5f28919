"""Machine-speed probe: a fixed reference kernel timed while the ops run.

On a shared host the speed one process gets can change by tens of percent
from one second to the next, on a time scale shorter than one run.  A
timing in seconds then mixes the program's speed with the host's.  While
the probe is started it runs a fixed kernel, a short scipy DOP853 solve of
a Kepler orbit (the solver and the small-array numpy work the library
spends its time in), from a profiling-timer signal every PERIOD_S of CPU
time, and records how long the kernel took.  Python runs the handler
between bytecodes of the main thread, so samples are also taken inside
long ops.

A duration measured over [t0, t1] is then rescaled to reference speed:
multiplied by REF_KERNEL_S over the mean kernel time of the samples taken
in [t0 - WINDOW_S, t1 + WINDOW_S].  REF_KERNEL_S is a constant, so a
rescaled time is still in seconds: seconds on a host where the kernel takes
REF_KERNEL_S.  The probe's own time is subtracted from every duration.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np
from scipy.integrate import DOP853

PERF = time.perf_counter

# reference speed is a host on which the kernel takes this long; on a shared
# 2-CPU Intel Xeon (2.1 GHz) virtual machine with Python 3.11 it takes 0.6-1.0 ms
REF_KERNEL_S = 1.0e-3
PERIOD_S = 0.02
WINDOW_S = 0.2
KERNEL_T = 1.3


def _kepler(t: float, y: np.ndarray) -> np.ndarray:
    r3 = (y[0] * y[0] + y[1] * y[1]) ** 1.5
    return np.array([y[2], y[3], -y[0] / r3, -y[1] / r3])


def kernel() -> float:
    """Fixed work: a Kepler orbit stepped by DOP853 at tight tolerances."""
    solver = DOP853(_kepler, 0.0, np.array([1.0, 0.0, 0.0, 1.1]), KERNEL_T,
                    rtol=1e-10, atol=1e-12)
    while solver.status == "running":
        solver.step()
    return float(solver.y[0])


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []  # start of each sample
        self.durations: list[float] = []
        self.spent = 0.0  # total time inside the kernel
        self._prev = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # the timer fired inside an explicit sample
            return
        self._busy = True
        t0 = PERF()
        kernel()
        dt = PERF() - t0
        self._busy = False
        self.times.append(t0)
        self.durations.append(dt)
        self.spent += dt

    def sample(self, count: int) -> None:
        """Take `count` samples now, as the timer would.

        Python runs no handler while C code imports a module, so set-up
        gets few timer samples; it takes these before and after.
        """
        for _ in range(count):
            self._tick(signal.SIGPROF, None)

    def start(self) -> None:
        self._prev = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        if self._prev is not None:
            signal.signal(signal.SIGPROF, self._prev)
            self._prev = None

    def mean_kernel_s(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Mean kernel time of the samples started in [t0, t1]; nan if none."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi <= lo:
            return math.nan
        return math.fsum(self.durations[lo:hi]) / (hi - lo)

    def factor(self, t0: float, t1: float) -> float:
        """Scale that takes a duration measured in [t0, t1] to reference speed."""
        mean = self.mean_kernel_s(t0 - WINDOW_S, t1 + WINDOW_S)
        if not mean > 0.0:
            mean = self.mean_kernel_s()
        return REF_KERNEL_S / mean if mean > 0.0 else 1.0

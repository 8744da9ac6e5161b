"""Host-speed probe that puts wall times on a common scale.

On a shared virtual machine the speed of a vCPU changes by up to 2x for
seconds at a time.  Thread CPU time moves with wall time there, so neither
separates the program's cost from the host's.  The probe times a fixed
calibration kernel every ``INTERVAL`` seconds from a ``SIGALRM`` handler and
expresses a span of wall time at the reference speed, where the kernel takes
``REF_KERNEL_S``:

    time_at_ref = wall * REF_KERNEL_S / (mean kernel time sampled in the span)

The kernel mixes the two kinds of work varsmile does: a scipy ``quad`` over a
Python integrand that makes numpy scalar calls, and ufuncs on a small array.
It calls no varsmile code, so a change to the package does not move it.
Handlers run in the main thread between bytecodes, also while it waits on a
thread pool.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np
from scipy.integrate import quad

INTERVAL = 0.05
# Kernel time at the reference speed, about its median on an idle 2-vCPU
# 2.0 GHz Xeon guest.  It sets the scale only; comparisons are ratios.
REF_KERNEL_S = 2.0e-4

_ARR = np.linspace(0.0, 1.0, 256)


def _integrand(u: float) -> float:
    return math.exp(-u) * float(np.tanh(u)) / math.sqrt(1.0 + u * u)


def kernel() -> None:
    quad(_integrand, 0.0, 2.0, epsabs=1e-13, epsrel=1e-10)
    a = _ARR
    for _ in range(20):
        a = np.sqrt(a * a + 1.0) - 0.5 * a


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.times.append(t0)
        self.kernel_s.append(time.perf_counter() - t0)

    def start(self):
        kernel()  # the first call pays scipy's lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def at_ref(self, t0: float, t1: float) -> float:
        """Seconds of the span [t0, t1] at the reference speed.  The sample
        window is widened by one interval on each side so that short spans
        get samples; with none (probe stopped) the span is returned as is."""
        lo = bisect.bisect_left(self.times, t0 - INTERVAL)
        hi = bisect.bisect_right(self.times, t1 + INTERVAL)
        window = self.kernel_s[lo:hi]
        if not window:
            return t1 - t0
        return (t1 - t0) * REF_KERNEL_S * len(window) / sum(window)

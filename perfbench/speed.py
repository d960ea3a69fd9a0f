"""How fast the benchmark's CPU runs, sampled while each child runs.

On a shared host the speed of one virtual CPU drifts by 10-25% over tens of
seconds, and the two CPUs of a 2-core machine drift independently (their
one-second speeds correlated at -0.04). So the benchmark pins itself and every
child it starts to one CPU, and a thread in the benchmark process wakes every
``INTERVAL_S`` on that same CPU to time a fixed probe in its own CPU time. The
probe mixes an interpreter loop, many tiny numpy calls and three passes over
a 1 MB array, like the program's own mix. On a 2-core Xeon VM, over 28
children of each kind, its mean CPU time during a child tracked the child's
CPU time with correlation 0.975-0.979 on betahmm fit, eval and benchmark
children; a probe of large numpy calls alone reached only 0.69-0.75.

``SpeedProbe.scale(start, end)`` is the reference probe time over the mean
probe time in that interval: multiply a CPU time by it to get the CPU time the
work would take at the reference speed. One probe takes 0.8-1.5 ms, so the
thread uses 5-9% of the CPU it shares with the children.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.015
# the probe CPU time that defines the reference speed; any constant works,
# since only ratios between runs are compared. A quiet 2-core Xeon VM runs the
# probe in about 0.8 ms, a busy one in 1.1-1.5 ms.
REFERENCE_PROBE_S = 0.001


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so every thread and child it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Times the probe every ``INTERVAL_S`` inside a ``with`` block."""

    def __init__(self) -> None:
        # appended by the probe thread, cpu_s first, so that every index
        # found in times is valid in cpu_s
        self.times: list = []  # perf_counter at the end of each probe
        self.cpu_s: list = []  # probe CPU time, same order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)
        self._big = np.ones(1 << 17)
        self._a = np.ones((4, 4))
        self._b = np.ones(4)

    def _probe(self) -> None:
        acc = 0
        for i in range(10000):
            acc += i * i
        for _ in range(150):
            self._a @ self._b + self._b
        for _ in range(3):
            np.multiply(self._big, 1.0000001, out=self._big)

    def _sample(self) -> None:
        start = time.thread_time()
        self._probe()
        self.cpu_s.append(time.thread_time() - start)
        self.times.append(time.perf_counter())

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._probe()  # the first call pays one-off costs outside the samples
        self._sample()  # so that scale() always has a sample
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Reference over mean probe CPU time in [start, end]; the whole run's if none."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        window = self.cpu_s[lo:hi] or self.cpu_s
        return REFERENCE_PROBE_S / statistics.fmean(window)

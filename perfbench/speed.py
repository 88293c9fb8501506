"""A machine-speed reference, so that job times of runs minutes apart compare.

On a shared virtual machine the speed of a vCPU drifts, by up to 2x within
minutes, and no steal time shows inside the guest: on a 2-vCPU machine a
fixed pure-Python loop took 0.25 s in one second and 0.49 s a few seconds
later. Wall times of whole runs then differ by more than any useful bound.

So between jobs (at most every CALIBRATE_EVERY_S) the benchmark times a
fixed piece of interpreter work, the kernel, and scales each job's wall time
to reference speed:

    time at reference speed = wall time * REFERENCE_KERNEL_S / kernel time nearby

where "kernel time nearby" is the mean of the last kernel timing before the
job and the first one after it. Speed changes within a second, so the two
timings that bracket a job track it better than a wider window does. A
change to the program moves the scaled time as it moves wall time; a change
of machine speed moves the job and the kernel alike and cancels out. The
kernel does not touch routegame. Raw wall times are reported beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_right

CALIBRATE_EVERY_S = 0.05
#: Nominal kernel time: scaled times read as seconds on a machine where the
#: kernel takes this long (about a 2-vCPU cloud VM running Python 3.11).
REFERENCE_KERNEL_S = 0.0025


def _step(x: int) -> float:
    return x * 0.5 + 1.0


def kernel() -> float:
    """Seconds taken by fixed interpreter work: calls, dict updates, a sort."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    rows = []
    acc = 0.0
    for i in range(4000):
        k = i % 61
        table[k] = table.get(k, 0.0) + _step(i)
        rows.append((k, acc))
        acc += table[k]
    rows.sort()
    return time.perf_counter() - start


class Gauge:
    """Kernel timings taken through a run."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self._due = 0.0

    def tick(self, force: bool = False) -> None:
        """Time the kernel if CALIBRATE_EVERY_S has passed since the last time."""
        now = time.perf_counter()
        if force or now >= self._due:
            self.at.append(now)
            self.kernel_s.append(kernel())
            self._due = time.perf_counter() + CALIBRATE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """Factor from wall time in [start, end] to time at reference speed.
        No kernel runs inside the interval, so the first timing after
        `start` is also the first after `end`."""
        after = bisect_right(self.at, start)
        bracket = self.kernel_s[max(after - 1, 0):after + 1]
        return REFERENCE_KERNEL_S / statistics.fmean(bracket)

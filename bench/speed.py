"""Machine-speed calibration, so that run-to-run figures compare.

The shared VM this benchmark was built on runs each vCPU in phases: for
a few seconds to half a minute at a time a vCPU runs pure Python about
half as fast as in between, and the two vCPUs switch independently.
A 20 s run catches a random share of slow phases, so raw wall times
spread by a third from run to run whatever the run length.

The benchmark therefore pins itself and its children to one CPU and
runs a short fixed task -- sums of Fractions in a tuple-keyed dict and a
sort, the kind of work the library does, but none of the library's
code -- before every request, and every 0.1 s while a cli child runs
(see ``run.run_child``).  Each timed interval is scaled by
``REFERENCE_S`` over the mean time of the tasks run around it:
the result is the interval's duration at the reference speed, the speed
at which the task takes ``REFERENCE_S``.  The task does not touch
``ellcob``, so a change to the library moves scaled times exactly as it
moves raw ones; only the machine's phase is divided out.  Raw wall
times are reported next to the scaled ones.
"""
from __future__ import annotations

import bisect
import os
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001  # one task in the fast phase on a 2.0 GHz Xeon VM, Python 3.11
WINDOW_S = 0.5  # tasks within this distance of an interval calibrate it
MIN_TASKS = 8  # at least this many of the nearest tasks, however far


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the tasks run on
    the same vCPU as the work they calibrate."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def task() -> list:
    table: dict = {}
    for i in range(1, 280):
        key = (i % 31, i % 17, i % 5)
        table[key] = table.get(key, Fraction(0)) + Fraction(i * 7919 % 1013, i % 97 + 1)
    return sorted(table.items(), reverse=True)


class Calibrator:
    """Runs the task on demand and scales intervals by the tasks around them."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each task, perf_counter
        self.durations: list[float] = []

    def probe(self, count: int = 1) -> None:
        """Run the task ``count`` times.  A task is timed in this thread's
        CPU time, which runs at the vCPU's speed but does not count time
        the scheduler gives to a child sharing the CPU."""
        for _ in range(count):
            start, cpu = time.perf_counter(), time.thread_time()
            task()
            self.durations.append(time.thread_time() - cpu)
            self.times.append((start + time.perf_counter()) / 2)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean task time around [start, end]: the
        mean, since an interval runs at the time-average speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_TASKS and (lo > 0 or hi < len(self.times)):
            before = start - self.times[lo - 1] if lo > 0 else float("inf")
            after = self.times[hi] - end if hi < len(self.times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """The duration of [start, end] at the reference speed."""
        return (end - start) * self.factor(start, end)

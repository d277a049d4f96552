"""Host-speed normalisation.

The host this benchmark runs on changes speed by up to 2x within a
second (other tenants share its cores), and CPU time drifts with wall
time, so raw timings of the same code disagree run to run.  Every timed
interval is therefore reported in *reference-seconds*::

    ref = raw * C / c

where ``c`` is the time of a fixed pure-Python calibration kernel
measured around the interval and ``C`` is the reference calibration time
fixed in ``BENCHMARK.json`` (``--ref-calibration-ms``).  A host running
at the reference speed reports ``ref == raw``.

``c`` comes from a :class:`HostSampler`: background threads that time
the kernel on their own CPU clock every ``PERIOD`` seconds for as long as
the workload runs, one thread pinned to each CPU the work may use.  An
interval's ``c`` is the mean of the samples taken during it and within
``HALF_WINDOW`` of its ends, so an operation that lasts seconds is
normalised by the host's speed over those seconds, not by its speed at
the two instants around it.  Intervals are recorded as raw timestamps
and normalised after the samples around them exist.
"""

from __future__ import annotations

import bisect
import collections
import os
import statistics
import threading
import time
from typing import List, Tuple

#: Iterations of the arithmetic half of one kernel repetition.
KERNEL_ITERATIONS = 600

#: Window entries of the pipeline-like half of one kernel repetition.
KERNEL_ENTRIES = 200

#: Repetitions per sample; the fastest one is kept, which drops a
#: repetition cut by an interrupt.
CALIBRATION_REPS = 2

#: Seconds between samples (about 1.5 % of one core).
PERIOD = 0.05

#: Samples this close to an interval's ends also count for it.
HALF_WINDOW = 0.25


class _Entry:
    __slots__ = ("seq", "dest", "srcs")

    def __init__(self, seq: int, dest: int, srcs: tuple) -> None:
        self.seq = seq
        self.dest = dest
        self.srcs = srcs

    def ready(self, table: list) -> bool:
        for src in self.srcs:
            if not table[src]:
                return False
        return True


#: The kernel's data, built once: a repetition allocates no container,
#: so it never triggers a garbage collection whose cost would land in
#: the sample.
_ENTRIES = [_Entry(i, (i * 7) & 63, ((i * 3) & 63, (i * 5 + 1) & 63))
            for i in range(KERNEL_ENTRIES)]
_READY = [True] * 64
_TABLE = dict.fromkeys(range(128), 0)
_WINDOW: "collections.deque[_Entry]" = collections.deque()


def kernel() -> int:
    """Fixed CPU-bound work in the interpreter's mix of the simulator's
    hot loops (int arithmetic, dicts, attribute access, method calls, a
    deque window), but none of the program's own code.  Two unlike
    halves average out how one process's memory layout favours either."""
    acc = 0
    table = _TABLE
    for i in range(KERNEL_ITERATIONS):
        key = (i * 7) & 127
        table[key] = (table[key] + i) & 0xFFFF
        acc = (acc * 31 + key) & 0xFFFF
    window, ready = _WINDOW, _READY
    for entry in _ENTRIES:
        window.append(entry)
        ready[entry.dest] = False
        if len(window) > 16:
            head = window.popleft()
            if head.ready(ready):
                acc += head.seq & 3
            ready[head.dest] = True
    while window:
        ready[window.popleft().dest] = True
    return acc


def calibrate(reps: int = CALIBRATION_REPS) -> float:
    """CPU seconds of one kernel repetition now (fastest of ``reps``)."""
    best = float("inf")
    for _ in range(reps):
        start = time.thread_time()
        kernel()
        best = min(best, time.thread_time() - start)
    return best


class HostSampler:
    """Samples the host's speed from background threads while open.

    One sampling thread is pinned to each CPU in ``cpus`` (default: the
    CPUs this process may run on).  Use as a context manager around the
    timed phase; call :meth:`ref` for intervals inside it once it has
    closed.
    """

    def __init__(self, ref_s: float, cpus=None) -> None:
        self.ref_s = ref_s
        cpus = sorted(os.sched_getaffinity(0)) if cpus is None else cpus
        self._stop = threading.Event()
        #: per CPU: (sample times, calibrations), each in time order.
        self._series: List[Tuple[List[float], List[float]]] = [
            ([], []) for _ in cpus]
        self._threads = [
            threading.Thread(target=self._run, args=(cpu, series),
                             name=f"host-sampler-{cpu}", daemon=True)
            for cpu, series in zip(cpus, self._series, strict=True)]

    def __enter__(self) -> "HostSampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _run(self, cpu: int, series) -> None:
        os.sched_setaffinity(0, {cpu})      # this thread only
        times, calibrations = series
        while True:
            c = calibrate()
            calibrations.append(c)
            times.append(time.perf_counter())
            if self._stop.wait(PERIOD):
                return

    def c_between(self, start: float, end: float) -> float:
        """Mean calibration over ``[start, end]`` widened by the window."""
        window = []
        for times, calibrations in self._series:
            low = bisect.bisect_left(times, start - HALF_WINDOW)
            high = bisect.bisect_right(times, end + HALF_WINDOW)
            window += calibrations[low:high]
        if window:
            return statistics.fmean(window)
        nearest = []
        for times, calibrations in self._series:
            index = bisect.bisect_left(times, start)
            nearest.append(calibrations[min(index, len(calibrations) - 1)])
        return statistics.fmean(nearest)

    def ref(self, start: float, end: float) -> float:
        """Reference-seconds of the host interval ``[start, end]``."""
        return (end - start) * self.ref_s / self.c_between(start, end)

    def calib_ms(self) -> float:
        """Median calibration, in milliseconds."""
        return 1000.0 * statistics.median(
            c for _, calibrations in self._series for c in calibrations)

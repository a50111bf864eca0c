"""Host-speed normalization of every time the benchmark reports.

The machines this benchmark runs on are shared: for seconds at a time a
neighbour's load slows our CPU by up to half, and a fixed loop takes
anywhere from 1.0x to 1.8x its best time. Over a 20 s run that moved
wall-clock metrics by 20-40 % between seeds, far more than any bound
worth setting. So the orchestrator pins itself, and with it every process
a run starts, to one CPU, and a sampler thread times a fixed calibration
loop on that CPU every :data:`PERIOD_S`. On the normalized clock, time the
CPU spends busy advances by ``REFERENCE_S / loop_time`` per wall second,
and idle time (sleeps, timeouts) by one: an interval on it reads the
seconds the work would have taken on a CPU that runs the loop in
:data:`REFERENCE_S`. On cold app analyses the spread between repeats fell
from 20-40 % to 2-3 %.

The loop does what the program's hot paths do (dict reads and writes,
function calls, integer arithmetic), because a pure arithmetic loop slows
differently from them under contention.

A process's stop (interpreter teardown: freeing memory, unloading
modules) slows differently again: in some slow phases it took 1.4x its
fast time while the loop took 1.8x. An empty interpreter process slows as
the stop does, so a CPU-bound stop is scaled by
:func:`reference_process_times` taken around it instead.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import threading
import time

#: The calibration loop's duration on the reference CPU (the fast state of
#: the 2-CPU host the baseline in bench/README.md was measured on).
REFERENCE_S = 34e-6
PERIOD_S = 0.02
#: Samples on either side over which the loop time and the CPU's busy
#: share are taken.
SPEED_WINDOW = 2
BUSY_WINDOW = 10
#: Loops per sample; the fastest one counts, so a loop that the scheduler
#: interrupted for one of the run's own threads does not read as a slow CPU.
LOOPS_PER_SAMPLE = 4

#: Wall time of :data:`REFERENCE_PROCESS` on the same CPU's fast state.
REFERENCE_PROCESS_S = 7.5e-3
REFERENCE_PROCESS = (sys.executable, "-I", "-S", "-c", "pass")

_TABLE = {i: i for i in range(64)}


def _step(x: int) -> int:
    return x + 1


def calibration_loop() -> int:
    table = _TABLE
    s = 0
    for j in range(300):
        k = j & 63
        s = _step(s) + table[k]
        table[k] = s & 255
    return s


def reference_process_times(runs: int = 3) -> list[float]:
    """Wall times of *runs* starts of an empty interpreter process, one after another."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(REFERENCE_PROCESS, check=True)
        times.append(time.perf_counter() - start)
    return times


def pin_to_one_cpu() -> int | None:
    """Pin this process (and what it starts later) to one CPU; returns it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_ticks(cpu: int | None) -> tuple[int, int] | None:
    """(busy, total) clock ticks of one CPU so far, from /proc/stat."""
    if cpu is None:
        return None
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    ticks = [int(x) for x in line.split()[1:]]
                    idle = ticks[3] + ticks[4]  # idle + iowait
                    return sum(ticks) - idle, sum(ticks)
    except OSError:
        pass
    return None


class SpeedSampler:
    """Times the calibration loop every PERIOD_S on a background thread."""

    def __init__(self, cpu: int | None) -> None:
        self.cpu = cpu
        self.times: list[float] = []
        self.loops: list[float] = []
        self.ticks: list[tuple[int, int] | None] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-hostspeed", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        # Let the first interval that is timed have samples on both sides.
        time.sleep((BUSY_WINDOW + 1) * PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            ticks = cpu_ticks(self.cpu)
            best = float("inf")
            for _ in range(LOOPS_PER_SAMPLE):
                start = time.perf_counter()
                calibration_loop()
                best = min(best, time.perf_counter() - start)
            self.loops.append(best)
            self.times.append(t0)
            self.ticks.append(ticks)

    def clock(self) -> "NormalizedClock":
        rates = []
        n = len(self.loops)
        for i in range(n):
            # One loop time jitters by a few percent, and ticks come at 100 Hz,
            # too coarse for one 20 ms interval; phases last a second or more,
            # so both are taken over a few neighbouring samples.
            loop = statistics.median(self.loops[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1])
            lo, hi = max(0, i - BUSY_WINDOW), min(n - 1, i + 1 + BUSY_WINDOW)
            busy = 1.0
            if self.ticks[lo] and self.ticks[hi]:
                d_busy = self.ticks[hi][0] - self.ticks[lo][0]
                d_total = self.ticks[hi][1] - self.ticks[lo][1]
                busy = d_busy / d_total if d_total else busy
            rates.append(busy * REFERENCE_S / loop + (1.0 - busy))
        return NormalizedClock(list(self.times), rates)


class NormalizedClock:
    """Maps ``time.perf_counter()`` readings onto the normalized clock.

    Between two samples the clock runs at the rate measured for that
    interval; before the first and after the last it runs at their rates.
    Without samples it is the wall clock.
    """

    def __init__(self, times: list[float], rates: list[float]) -> None:
        self.times = times
        self.rates = rates
        self.marks = [0.0]
        for i in range(1, len(times)):
            self.marks.append(self.marks[-1] + (times[i] - times[i - 1]) * rates[i - 1])

    def __call__(self, t: float) -> float:
        if not self.times:
            return t
        i = max(0, bisect.bisect_right(self.times, t) - 1)
        return self.marks[i] + (t - self.times[i]) * self.rates[i]

    def interval(self, start: float, end: float) -> float:
        return self(end) - self(start)

    def slowdown(self, start: float, end: float) -> float:
        """Wall seconds per normalized second over [start, end]."""
        normalized = self.interval(start, end)
        return (end - start) / normalized if normalized > 0 else 1.0

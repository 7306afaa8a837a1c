"""How fast the CPUs were while a segment of work ran.

The benchmark runs on a few virtual CPUs of a shared host, and each of
them slows down and speeds up by more than half, for seconds at a time,
as other tenants load the physical cores under it.  A time measured
there says as much about the neighbours as about the program.

:class:`SpeedProbe` is a background thread that, every ``PERIOD``
seconds, runs a fixed piece of pure-Python work (:func:`reference_work`,
none of it from the program) on one of the CPUs the measured work uses
and records the thread CPU time it took.  CPU time leaves out the time
the probe waited for the CPU, so each sample reads the speed of that
CPU at that moment.  :meth:`SpeedProbe.seconds` turns the wall time of
a segment into *reference seconds*: the wall time scaled by the mean of
``REFERENCE_CPU_S / sample`` over the segment's samples, i.e. the time
the segment would have taken had the CPU run the reference work in
``REFERENCE_CPU_S`` throughout.  The probe's own wall time inside the
segment (it shares the CPU with the work) is taken out first.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import contextmanager
from time import monotonic

#: seconds between two samples
PERIOD = 0.02
#: thread CPU seconds of one :func:`reference_work` call on the reference
#: CPU: about its time on a 2 GHz x86-64 vCPU of a shared host in the slow
#: state (about 0.4 ms in the fast one), so reference seconds read close
#: to that CPU's slow-state wall seconds
REFERENCE_CPU_S = 0.0006


def reference_work() -> int:
    """A fixed interpreter-bound job: dict, list, arithmetic and calls."""
    table: dict[int, int] = {}
    items: list[int] = []
    total = 0
    for i in range(1500):
        key = i & 255
        table[key] = table.get(key, 0) + i
        items.append(key ^ i)
        total += abs((i * 7) % 13 - 6)
    items.sort()
    return total + len(table) + items[-1]


class WallClock:
    """Plain wall time, for runs that are not compared against a bound."""

    def seconds(self, start: float, end: float) -> float:
        return end - start

    def factor(self, start: float, end: float) -> float:
        return 1.0

    @contextmanager
    def spread(self):
        yield


class SpeedProbe(WallClock):
    """Samples CPU speed until stopped and scales wall time by it.

    While it runs, the calling thread (and every process it starts) is
    pinned to one CPU, the one the probe samples; inside :meth:`spread`
    they may use every CPU, and the probe samples each in turn.
    All times are :func:`time.monotonic` readings.
    """

    def __init__(self) -> None:
        self.allowed = sorted(os.sched_getaffinity(0))
        self.cpus = self.allowed[:1]
        #: one (wall start, wall end, thread CPU seconds, share) per sample,
        #: where share is 1 / the number of CPUs sampled in turn
        self.samples: list[tuple[float, float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> SpeedProbe:
        os.sched_setaffinity(0, self.cpus)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self.allowed)

    @contextmanager
    def spread(self):
        """Let the work (a process pool, say) use every allowed CPU."""
        os.sched_setaffinity(0, self.allowed)
        self.cpus = self.allowed
        try:
            yield
        finally:
            self.cpus = self.allowed[:1]
            os.sched_setaffinity(0, self.cpus)

    def _sample(self) -> None:
        index = 0
        while not self._stop.wait(PERIOD):
            cpus = self.cpus
            # pins this thread only; the work's threads keep their CPUs
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            index += 1
            start, cpu = monotonic(), time.thread_time()
            reference_work()
            cpu = time.thread_time() - cpu
            self.samples.append((start, monotonic(), cpu, 1.0 / len(cpus)))

    def _inside(self, start: float, end: float) -> list[tuple]:
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        if inside:
            return inside
        # a segment shorter than PERIOD: the samples nearest to it
        return sorted(self.samples, key=lambda s: abs(s[0] - start))[:2]

    def factor(self, start: float, end: float) -> float:
        """Mean speed-up to the reference CPU over ``[start, end]``."""
        inside = self._inside(start, end)
        if not inside:
            return 1.0
        return statistics.fmean(REFERENCE_CPU_S / s[2] for s in inside)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the segment ``[start, end]``."""
        # the probe held one of the work's CPUs for its samples' wall time
        busy = sum((s[1] - s[0]) * s[3] for s in self.samples
                   if start <= s[0] and s[1] <= end)
        return max(0.0, end - start - busy) * self.factor(start, end)

"""Minimal, fast discrete-event engine.

Nothing here is specific to streaming: a clock, monotone sequence numbers
for deterministic FIFO tie-breaking of simultaneous events (a strict
requirement for reproducible runs — Python's heap is not stable on its
own), a binary-heap pending-event set and a dispatch loop.

The determinism contract
------------------------
Events fire in strictly increasing ``(time, sequence)`` order, where
``sequence`` is the monotonically increasing integer the simulator
assigns at ``schedule_*`` time:

* events at distinct times fire in time order;
* events at the *same* time fire in scheduling (FIFO) order — the
  sequence number is part of every entry and always compared before
  anything else could be;
* cancellation is *logical* (the handle is flagged; the entry is skipped
  when it surfaces) so cancelling never perturbs the order of the
  surviving events;
* the queue never compares callbacks or arguments (sequence numbers are
  unique, so tuple comparison always stops at the sequence).

Every result of this reproduction depends only on that order, never on
how the pending set is organised.

Design notes
------------
* Events are ``(time, sequence, handle, callback, argument)`` tuples.
* :class:`HeapKernel` owns the pending set and compacts its storage when
  dead entries outnumber live ones.  :attr:`Simulator.pending` is a
  live-count integer the kernel maintains incrementally — it is read in
  hot loops (runner progress accounting) and never recounts the queue.
  The streaming system instead mostly uses generation counters on its
  own state, which is cheaper than allocating handles for the (very hot)
  idle-timer path.
* :class:`Simulator` obtains its kernel from the module-level
  :func:`make_kernel` at construction, so a wrapper (a counting or timing
  proxy with the same ``push``/``cancel``/``pop_due``/``live`` surface)
  can be swapped in from outside without touching this module.
* Time is float seconds.  All durations in this reproduction are sums of
  "nice" values (minutes, hours, powers of two), so float determinism is a
  non-issue in practice, and the regression suite pins exact outputs.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ConfigurationError, SimulationError

__all__ = ["Simulator", "EventHandle", "HeapKernel", "make_kernel"]

#: one queued event: (time, sequence, handle, callback, argument)
Entry = tuple[float, int, "EventHandle", Callable, object]


@dataclass(slots=True)
class EventHandle:
    """Cancellable reference to a scheduled event."""

    time: float
    sequence: int
    cancelled: bool = False
    #: True once the event has left the queue (fired or skipped)
    done: bool = False


class HeapKernel:
    """Single binary-heap event queue with dead-entry compaction.

    Cancellation marks the handle and the main loop skips dead entries
    when they surface.  So that cancellation-heavy workloads don't drag a
    growing graveyard through every heap operation, the queue is
    compacted (live entries re-heapified) whenever dead entries outnumber
    live ones and the queue is at least :attr:`COMPACT_MIN_SIZE` long.
    """

    name = "heap"

    #: don't bother compacting queues smaller than this
    COMPACT_MIN_SIZE = 64

    __slots__ = ("_queue", "_dead", "live")

    def __init__(self) -> None:
        self._queue: list[Entry] = []
        self._dead = 0
        #: number of live (not fired, not cancelled) entries
        self.live = 0

    def push(self, entry: Entry) -> None:
        """O(log n) insert."""
        heapq.heappush(self._queue, entry)
        self.live += 1

    def cancel(self, handle: EventHandle) -> None:
        """Flag the handle dead; compact when the dead outnumber the live."""
        if handle.cancelled or handle.done:
            return
        handle.cancelled = True
        self._dead += 1
        self.live -= 1
        if (
            len(self._queue) >= self.COMPACT_MIN_SIZE
            and self._dead * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries and re-heapify (preserves (time, seq) order)."""
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._dead = 0

    def pop_due(self, until: float | None) -> Entry | None:
        """Remove and return the earliest live entry at or before ``until``.

        ``None`` when the queue is empty or the earliest live event is
        after ``until``.  The stored tuple itself is returned — one less
        allocation on a path that runs once per event.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            if until is not None and entry[0] > until:
                return None
            heapq.heappop(queue)
            handle = entry[2]
            handle.done = True
            if handle.cancelled:
                self._dead -= 1
                continue
            self.live -= 1
            return entry
        return None


def make_kernel(name: str) -> HeapKernel:
    """The event kernel named ``name``; ``"heap"`` is the only one."""
    if name != HeapKernel.name:
        raise ConfigurationError(
            f"unknown event kernel {name!r}; known: {HeapKernel.name}"
        )
    return HeapKernel()


class Simulator:
    """Clock + sequence numbers + dispatch over the event kernel.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(5.0, fired.append, "a")
    >>> _ = sim.schedule_at(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    __slots__ = ("now", "kernel", "_sequence", "events_processed")

    #: the heap kernel's compaction threshold
    COMPACT_MIN_SIZE = HeapKernel.COMPACT_MIN_SIZE

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self.kernel = make_kernel(HeapKernel.name)
        self._sequence = 0
        self.events_processed = 0

    @property
    def _queue(self) -> list:
        """The heap kernel's raw entry list (tests and debugging only)."""
        return self.kernel._queue

    def schedule_at(
        self, time: float, callback: Callable, argument: object = None
    ) -> EventHandle:
        """Schedule ``callback(argument)`` at absolute ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        self._sequence += 1
        handle = EventHandle(time=time, sequence=self._sequence)
        self.kernel.push((time, self._sequence, handle, callback, argument))
        return handle

    def schedule_in(
        self, delay: float, callback: Callable, argument: object = None
    ) -> EventHandle:
        """Schedule ``callback(argument)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, argument)

    def cancel(self, handle: EventHandle) -> None:
        """Mark an event dead; it is skipped when it reaches the queue head.

        When more than half the kernel's stored entries are dead, the
        kernel rebuilds its storage from the live entries so
        cancellation-heavy workloads don't keep paying queue costs for
        events that will never fire.
        """
        self.kernel.cancel(handle)

    @property
    def pending(self) -> int:
        """Number of live (not fired, not cancelled) events in the queue.

        A counter the kernel maintains incrementally — O(1), safe to read
        in hot progress-accounting loops.
        """
        return self.kernel.live

    def run(self, until: float | None = None) -> None:
        """Process events in time order until the queue drains or ``until``.

        With ``until`` set, events at exactly ``until`` are still processed;
        later ones stay queued and the clock is advanced to ``until``.
        """
        pop_due = self.kernel.pop_due
        while True:
            entry = pop_due(until)
            if entry is None:
                break
            time, _sequence, _handle, callback, argument = entry
            self.now = time
            self.events_processed += 1
            callback(argument)
        if until is not None and self.now < until:
            self.now = until

    def step(self) -> bool:
        """Process exactly one (non-cancelled) event; False if queue is empty."""
        entry = self.kernel.pop_due(None)
        if entry is None:
            return False
        time, _sequence, _handle, callback, argument = entry
        self.now = time
        self.events_processed += 1
        callback(argument)
        return True

"""Minimal discrete-event simulation kernel.

A binary heap of ``(time, seq, callback, args)`` tuples.  ``seq`` is a
monotonically increasing tiebreaker so same-time events fire in scheduling
order, which keeps every simulation fully deterministic.

Per the HPC guides, the per-event work here is kept O(log n) heap ops plus
one Python call; anything batchable (trace generation, summary statistics)
is vectorized elsewhere instead of being pushed through the event loop.
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventQueue:
    """Deterministic binary-heap event queue."""

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        #: Current simulation time (cycles).  Monotonically non-decreasing.
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def after(self, delay: float, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` ``delay`` cycles from now."""
        # Inlined schedule(): this is the hottest call in the simulator.
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))
        self._seq += 1

    def clear(self) -> None:
        """Drop every pending event.

        Empties the heap list in place: the fast engine's channels hold
        that same list, so rebinding it would leave the events pinned.
        """
        self._heap.clear()

    def step(self) -> bool:
        """Run the earliest event.  Returns False when the queue is empty."""
        if not self._heap:
            return False
        time, _, fn, args = heapq.heappop(self._heap)
        self.now = time
        fn(*args)
        return True

    def run(self, until: float | None = None,
            stop: Callable[[], bool] | None = None,
            max_events: int | None = None) -> int:
        """Drain the queue.

        Stops when the queue is empty, when the next event is past ``until``,
        when ``stop()`` turns true (checked after each event), or after
        ``max_events`` events.  Returns the number of events executed.
        """
        n = 0
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                break
            time, _, fn, args = heapq.heappop(heap)
            self.now = time
            fn(*args)
            n += 1
            if stop is not None and stop():
                break
            if max_events is not None and n >= max_events:
                break
        return n

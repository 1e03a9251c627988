"""Weighted-fair priority queue for the campaign server.

A single heavy campaign (hundreds of cells) must not starve an
interactive ``repro run``-sized request that arrives behind it.  The
server therefore drains cells through a start-time-fair queue
(self-clocked fair queueing): each enqueue (one cell) is tagged with a
virtual *finish time* — ``max(vtime, last_tag[class]) + 1 / weight`` — and
:meth:`FairQueue.pop` always yields the smallest tag.  A class with
weight 4 receives ~4x the service of a weight-1 class under
contention, and an idle class's backlog never builds credit (its next
tag starts from the current virtual time, not from its last activity).

Everything is deterministic: ties break on ``(tag, seq)`` where
``seq`` is the global enqueue counter, so two runs of the same
arrival sequence drain identically — the same reproducibility bar the
rest of the repo holds.
"""

from __future__ import annotations

import heapq
from typing import Any

#: Fair-queue service classes and their weights.  ``interactive``
#: (small `repro submit`/CLI-sized campaigns) outweighs ``batch`` 4:1;
#: weights are per-class service shares, not strict priorities — a
#: backlogged batch class still progresses.
PRIORITIES: dict[str, float] = {"interactive": 4.0, "batch": 1.0}


class FairQueue:
    """Deterministic weighted-fair (SCFQ) queue over opaque items.

    ``push(item, priority)`` tags the item with a virtual finish time;
    ``pop()`` returns the smallest-tagged item.  The server pushes one
    cell per item, so one 100-cell campaign costs its class as much as
    a hundred 1-cell ones.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any, str]] = []
        self._last_tag = {name: 0.0 for name in PRIORITIES}
        self._depths: dict[str, int] = {}
        self._vtime = 0.0
        self._seq = 0

    def push(self, item: Any, priority: str = "batch") -> float:
        """Enqueue ``item`` under ``priority``; returns its tag."""
        try:
            weight = PRIORITIES[priority]
        except KeyError:
            raise ValueError(
                f"unknown priority {priority!r}; known: "
                f"{', '.join(sorted(PRIORITIES))}") from None
        start = max(self._vtime, self._last_tag[priority])
        tag = start + 1 / weight
        self._last_tag[priority] = tag
        heapq.heappush(self._heap, (tag, self._seq, item, priority))
        self._seq += 1
        self._depths[priority] = self._depths.get(priority, 0) + 1
        return tag

    def pop(self) -> Any:
        """Dequeue the smallest-tagged item; raises on an empty queue."""
        if not self._heap:
            raise IndexError("pop from an empty FairQueue")
        tag, _seq, item, priority = heapq.heappop(self._heap)
        # Advance the virtual clock to the served item's start-of-
        # service point so newly-active classes don't jump the line.
        self._vtime = max(self._vtime, tag)
        self._depths[priority] -= 1
        return item

    def depths(self) -> dict[str, int]:
        """Queued item count per priority class (health reporting).

        Classes with nothing queued are included at 0, so the shape is
        stable for dashboards polling ``/v1/health``.
        """
        return {name: self._depths.get(name, 0)
                for name in sorted(PRIORITIES)}

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

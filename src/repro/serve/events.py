"""Heap-based event scheduling for the cluster serving loop.

Finding the next event by a linear scan over every replica, in-flight
transfer and the arrival head on *every* iteration costs O(sources)
per event.  :class:`EventHeap` replaces the scan with a binary heap of
candidate event *times*: producers push a time whenever they schedule
something (a phase end, a transfer completion, an arrival, an
autoscaler evaluation), and the loop pops the earliest.

Two properties keep this equivalent to the scan (which the test-side
oracle in ``tests/serve_oracle.py`` still runs):

* **Times, not payloads.**  The heap stores only times; at each popped
  time the loop runs the fixed handler order a scanning loop runs per
  iteration (transitions, phase completions, ingest, transfers,
  autoscale, dispatch), so same-time events are processed in exactly
  the scan's tie-break order.
* **Stale entries are harmless.**  A popped time with nothing due
  makes every handler a no-op; simulator state is piecewise-constant
  between real events, so the extra iteration observes nothing new.
  Duplicate entries at one time are drained in a single pop.
"""

from __future__ import annotations

import heapq

from repro.errors import MeasurementError


class EventHeap:
    """A min-heap of candidate event times with duplicate draining."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[float] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time_s: float) -> None:
        """Schedule a candidate event time."""
        heapq.heappush(self._heap, time_s)

    def push_at_or_after(self, time_s: float, now_s: float) -> None:
        """Schedule ``time_s``, clamped so it never lands before ``now_s``.

        Used for arrival heads that are already due: the reference scan
        computes ``max(arrival_s, now)`` for the same reason.
        """
        heapq.heappush(self._heap, time_s if time_s > now_s else now_s)

    def pop_due(self) -> float:
        """Pop the earliest time, draining duplicates of the same instant.

        Raises :class:`MeasurementError` when empty — the loop only
        pops while work remains, so an empty heap means a producer
        failed to schedule an event (a fast-engine bug, not a user
        error).
        """
        if not self._heap:
            raise MeasurementError(
                "serve fast path stalled: work remains but no event is "
                "scheduled (event-heap underflow)"
            )
        t = heapq.heappop(self._heap)
        while self._heap and self._heap[0] == t:
            heapq.heappop(self._heap)
        return t

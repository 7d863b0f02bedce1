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
* **Withdrawn entries cost nothing.**  When a time a producer pushed
  is superseded before it is due (a fused decode run cut short), the
  producer withdraws it with :meth:`EventHeap.cancel`; ``pop_due``
  drops withdrawn entries and never returns a time whose every entry
  was withdrawn, so a superseded time costs no loop iteration.
  Duplicate entries at one time are drained in a single pop.
"""

from __future__ import annotations

import heapq

from repro.errors import MeasurementError


class EventHeap:
    """A min-heap of candidate event times with duplicate draining."""

    __slots__ = ("_heap", "_withdrawn")

    def __init__(self) -> None:
        self._heap: list[float] = []
        #: Time -> entries at that time withdrawn by :meth:`cancel`.
        self._withdrawn: dict[float, int] = {}

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

    def cancel(self, time_s: float) -> None:
        """Withdraw one pending entry at ``time_s``.

        The entry stays in the heap until its time comes up; only a
        time pushed earlier and not yet popped may be withdrawn.
        """
        self._withdrawn[time_s] = self._withdrawn.get(time_s, 0) + 1

    def pop_due(self) -> float:
        """Pop the earliest time that still has a live entry.

        Duplicates of that instant are drained with it, and times whose
        every entry was withdrawn are dropped on the way.  Raises
        :class:`MeasurementError` when no live entry is left — the loop
        only pops while work remains, so that means a producer failed
        to schedule an event (a fast-engine bug, not a user error).
        """
        heap = self._heap
        while heap:
            t = heapq.heappop(heap)
            entries = 1
            while heap and heap[0] == t:
                heapq.heappop(heap)
                entries += 1
            if t not in self._withdrawn or self._withdrawn.pop(t) < entries:
                return t
        raise stalled()


def stalled() -> MeasurementError:
    """The error of a loop whose remaining work no event can advance.

    A producer failed to schedule an event (a fast-engine bug, not a
    user error): the heap ran dry, or only events that cannot move the
    work, such as autoscaler evaluations, are left.
    """
    return MeasurementError(
        "serve fast path stalled: work remains but no event is "
        "scheduled (event-heap underflow)"
    )

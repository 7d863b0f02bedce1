"""Bounded admission queue in front of the serving scheduler.

Requests that arrive while the queue is full are **rejected** (load
shedding), recorded so the summary can report a rejection rate — the
serving-systems equivalent of the OOM walls in the training heatmaps:
the point where offered load exceeds what the system absorbs.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError
from repro.serve.arrivals import Request

#: Default bound on the admission queue.
DEFAULT_QUEUE_CAPACITY = 256


class AdmissionQueue:
    """FIFO queue with a hard capacity; overflow rejects the request."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError("queue capacity must be >= 1")
        self.capacity = int(capacity)
        self._waiting: deque[Request] = deque()
        self._rejected: list[Request] = []

    def __len__(self) -> int:
        """Requests currently waiting."""
        return len(self._waiting)

    @property
    def rejected(self) -> tuple[Request, ...]:
        """Requests shed because the queue was full, in arrival order."""
        return tuple(self._rejected)

    @property
    def rejected_count(self) -> int:
        """Number of shed requests, without materializing the tuple.

        The summary paths count rejections once per run; on a
        million-request saturation run the tuple copy behind
        :attr:`rejected` is pure overhead, so counting is O(1).
        """
        return len(self._rejected)

    def offer(self, request: Request) -> bool:
        """Enqueue ``request``; ``False`` (and recorded) when full."""
        if len(self._waiting) >= self.capacity:
            self._rejected.append(request)
            return False
        self._waiting.append(request)
        return True

    def peek(self) -> Request | None:
        """The request at the head of the queue, without removing it."""
        return self._waiting[0] if self._waiting else None

    def pop(self) -> Request:
        """Remove and return the head request."""
        if not self._waiting:
            raise ConfigError("pop from an empty admission queue")
        return self._waiting.popleft()

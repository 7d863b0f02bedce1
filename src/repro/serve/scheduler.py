"""Continuous-batching scheduler state and admission control.

Between decode steps the scheduler admits waiting requests into the
running batch and evicts finished sequences — vLLM-style iteration-level
scheduling, reduced to the two constraints that matter at this
granularity:

* a **batch cap** (compiled scheduler limit / max concurrency),
* the **KV-cache budget**: each admitted sequence reserves its maximum
  context (prompt + full generation) against the device memory left
  after weights and the runtime reserve — the same accounting as
  ``InferenceEngine.check_memory``, so the serving path cannot admit a
  batch the static path would refuse.

The scheduler is pure bookkeeping (no clock, no energy): the simulator
drives it and owns time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.inference import InferenceEngine
from repro.errors import ConfigError
from repro.serve.arrivals import Request

#: Default cap on concurrently decoding sequences (the one default the
#: library, ``caraml serve --batch-cap`` and the serve operations share).
DEFAULT_BATCH_CAP = 16

#: Bytes per gigabyte, used when formatting KV-budget diagnostics.
BYTES_PER_GB = 1e9


@dataclass(eq=False)
class Sequence:
    """One request while it is resident in the running batch.

    Sequences compare by identity, so evicting one from the batch
    (``list.remove``) compares no fields of the members ahead of it.
    """

    request: Request
    admitted_s: float
    first_token_s: float | None = None
    generated: int = 0

    @property
    def done(self) -> bool:
        """Whether the sequence has generated its full output."""
        return self.generated >= self.request.generate_tokens


class ContinuousBatchScheduler:
    """Admission/eviction bookkeeping over an engine's memory model."""

    def __init__(
        self,
        engine: InferenceEngine,
        *,
        batch_cap: int = DEFAULT_BATCH_CAP,
        kv_budget_bytes: float | None = None,
    ) -> None:
        if batch_cap < 1:
            raise ConfigError("batch cap must be >= 1")
        self.engine = engine
        self.batch_cap = int(batch_cap)
        budget = (
            kv_budget_bytes if kv_budget_bytes is not None else engine.kv_budget_bytes()
        )
        if budget <= 0:
            raise ConfigError(
                "no KV-cache budget: model weights plus runtime reserve "
                "exceed device memory"
            )
        self.kv_budget_bytes = float(budget)
        # KV-cache bytes one token of context reserves.
        self._kv_bytes_per_token = float(engine.model.kv_cache_bytes_per_token())
        self.active: list[Sequence] = []
        self._kv_reserved = 0.0

    # -- accounting ----------------------------------------------------------

    def kv_bytes_for(self, request: Request) -> float:
        """KV-cache reservation of one request at full context."""
        return request.context_tokens * self._kv_bytes_per_token

    @property
    def kv_reserved_bytes(self) -> float:
        """KV bytes currently reserved by the running batch."""
        return self._kv_reserved

    @property
    def batch_size(self) -> int:
        """Sequences currently decoding."""
        return len(self.active)

    # -- admission / eviction ------------------------------------------------

    def fits(self, request: Request) -> bool:
        """Whether the request can join the batch right now."""
        if len(self.active) >= self.batch_cap:
            return False
        return self._kv_reserved + self.kv_bytes_for(request) <= self.kv_budget_bytes

    def admissible(self, request: Request) -> None:
        """Raise :class:`ConfigError` if the request can *never* fit."""
        need = self.kv_bytes_for(request)
        if need > self.kv_budget_bytes:
            raise ConfigError(
                f"request {request.index} needs {need / BYTES_PER_GB:.2f} GB "
                f"of KV cache but the budget is "
                f"{self.kv_budget_bytes / BYTES_PER_GB:.2f} GB"
            )

    def admit(self, request: Request, now_s: float) -> Sequence:
        """Add a fitting request to the batch; returns its sequence.

        The request's KV reservation is computed once, for the
        :meth:`fits` test and the reservation alike.
        """
        need = self.kv_bytes_for(request)
        if (
            len(self.active) >= self.batch_cap
            or self._kv_reserved + need > self.kv_budget_bytes
        ):
            raise ConfigError(f"request {request.index} does not fit the batch")
        seq = Sequence(request=request, admitted_s=now_s)
        self.active.append(seq)
        self._kv_reserved += need
        return seq

    def evict(self, finished: list[Sequence]) -> None:
        """Evict the finished sequences ``finished``, in the given order.

        The serving loops pop a step's completions from their heaps in
        admission order, advance ``generated`` and stamp first-token
        times themselves, and pass them here once the step that
        completes them ends.  KV is released in that order and reset
        to exactly zero when the batch empties, so the reserved bytes
        do not depend on how many steps a loop fuses.
        """
        active = self.active
        for seq in finished:
            active.remove(seq)
            self._kv_reserved -= self.kv_bytes_for(seq.request)
        if not active:
            self._kv_reserved = 0.0  # absorb float drift at empty batch

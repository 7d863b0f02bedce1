"""Campaign executors: failure-isolated, retried, optionally parallel.

These plug into the :class:`~repro.jube.runner.WorkpackageExecutor`
seam but differ from the runner's default in two ways campaigns need:

* **failure isolation** — an exception inside one workpackage is
  captured into its :class:`~repro.jube.runner.WorkResult` instead of
  propagating, so sibling packages always run to completion,
* **retry with backoff** — operations raising
  :class:`~repro.errors.TransientError` are retried up to
  ``RetryPolicy.max_retries`` times with exponential backoff before
  the package is recorded as failed.

:class:`PoolExecutor` fans items out over a
:class:`concurrent.futures.ProcessPoolExecutor`.  Worker processes
cannot receive the operation registry itself (it holds closures), so
they receive a *factory*: either a picklable callable or a
``"module:function"`` string resolved by import in the worker.  Each
worker builds the registry once and reuses it for every item it
executes.  Results come back in item order, which — the simulation
being bit-deterministic — makes parallel output byte-identical to
sequential output.

Both executors run serve workpackages under a
:class:`~repro.serve.streams.StreamCache`: each pool worker keeps one
for its lifetime, and :class:`IsolatingExecutor` activates a fresh one
per call.  Nothing about arrival streams ships from the parent, so a
step that serves never restarts the pool.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError, TransientError
from repro.faults.injector import WorkpackageInjection, activate_injection
from repro.faults.plan import FaultPlan
from repro.obs.telemetry.config import TelemetryPlan, activate_telemetry
from repro.serve.streams import StreamCache, activate_streams, set_stream_cache
from repro.jube.runner import (
    OperationRegistry,
    WorkItem,
    WorkResult,
    execute_workpackage,
)
from repro.obs.log import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

logger = get_logger(__name__)

#: Sleep signature: receives the delay in seconds.  ``time.sleep`` by
#: default; tests and traced runs inject a virtual clock's ``advance``
#: so backoff waits are deterministic (and visible on the timeline)
#: instead of real.
SleepFn = Callable[[float], None]

#: Default registry factory: the CARAML benchmark operations.
DEFAULT_REGISTRY_FACTORY = "repro.core.registry:build_operation_registry"

RegistryFactory = Callable[[], OperationRegistry]


def resolve_registry_factory(
    factory: RegistryFactory | str | None,
) -> RegistryFactory:
    """Resolve a factory callable or ``"module:function"`` spec."""
    if factory is None:
        factory = DEFAULT_REGISTRY_FACTORY
    if callable(factory):
        return factory
    module_name, _, attr = str(factory).partition(":")
    if not attr:
        raise ConfigError(
            f"registry factory spec {factory!r} must look like 'module:function'"
        )
    try:
        module = importlib.import_module(module_name)
        resolved = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"cannot resolve registry factory {factory!r}: {exc}") from None
    if not callable(resolved):
        raise ConfigError(f"registry factory {factory!r} is not callable")
    return resolved


@dataclass(frozen=True)
class RetryPolicy:
    """How transient failures are retried.

    ``backoff_s`` is the first delay; each further retry doubles it
    (capped at ``max_backoff_s``).  A policy with ``max_retries=0``
    never retries.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    max_backoff_s: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.backoff_s * (2 ** (attempt - 1)), self.max_backoff_s)


def run_item_isolated(
    registry: OperationRegistry,
    item: WorkItem,
    retry: RetryPolicy = RetryPolicy(),
    sleep: SleepFn = time.sleep,
    fault_plan: FaultPlan | None = None,
    telemetry: TelemetryPlan | None = None,
) -> WorkResult:
    """Execute one item, capturing failures and retrying transients.

    Retries and their backoff waits are observable: each transient
    failure emits a ``campaign/retry`` event and the wait itself is a
    ``campaign/backoff`` span, so a traced campaign shows exactly where
    retry time went.

    With a ``fault_plan``, the item runs inside its injection scope:
    matching faults fire through the seams, their provenance lands on
    the :class:`WorkResult`, and a result that completed despite fired
    faults comes back ``degraded``.  The scope spans *all* attempts, so
    ``max_fires`` bounds how often a transient fault can abort retries.

    With a ``telemetry`` plan the item runs with live telemetry active:
    serving operations consult :func:`repro.obs.telemetry.get_telemetry`
    and write per-workpackage timeseries/OpenMetrics sidecars into the
    plan's directory.  The plan is process-global state (exactly like
    fault injection) rather than an operation parameter, so enabling
    telemetry never changes a workpackage's content-addressed identity.
    """
    if telemetry is not None:
        with activate_telemetry(telemetry):
            return run_item_isolated(registry, item, retry, sleep, fault_plan)
    if fault_plan is not None:
        scope = WorkpackageInjection(
            fault_plan, item.step.name, item.index, item.parameters
        )
        with activate_injection(scope):
            result = run_item_isolated(registry, item, retry, sleep)
        result.faults = scope.provenance()
        result.degraded = result.error is None and bool(result.faults)
        return result
    tracer = get_tracer()
    metrics = get_metrics()
    attempt = 0
    while True:
        attempt += 1
        try:
            result = execute_workpackage(registry, item)
            result.attempts = attempt
            return result
        except TransientError as exc:
            if attempt > retry.max_retries:
                logger.warning(
                    "workpackage %s#%d failed after %d attempts: %s",
                    item.step.name, item.index, attempt, exc,
                )
                return WorkResult(
                    error=f"{type(exc).__name__}: {exc}", attempts=attempt
                )
            delay = retry.delay(attempt)
            logger.info(
                "workpackage %s#%d transient failure (attempt %d), retrying in %gs: %s",
                item.step.name, item.index, attempt, delay, exc,
            )
            metrics.counter("campaign_retries_total", "transient retries").inc(
                step=item.step.name
            )
            tracer.event(
                "campaign/retry",
                attrs={"step": item.step.name, "index": item.index, "attempt": attempt},
            )
            with tracer.span(
                "campaign/backoff",
                attrs={"step": item.step.name, "index": item.index, "delay_s": delay},
            ):
                sleep(delay)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            logger.warning(
                "workpackage %s#%d failed: %s", item.step.name, item.index, exc
            )
            return WorkResult(error=f"{type(exc).__name__}: {exc}", attempts=attempt)


class IsolatingExecutor:
    """Sequential executor with failure isolation and retries.

    The campaign's reference executor: same in-process execution as the
    runner default, but a crashing workpackage yields a failed
    :class:`WorkResult` instead of aborting its siblings.
    """

    def __init__(
        self,
        registry_factory: RegistryFactory | str | None = None,
        retry: RetryPolicy = RetryPolicy(),
        sleep: SleepFn = time.sleep,
        fault_plan: FaultPlan | None = None,
        telemetry: TelemetryPlan | None = None,
    ) -> None:
        self.registry = resolve_registry_factory(registry_factory)()
        self.retry = retry
        self.sleep = sleep
        self.fault_plan = fault_plan
        self.telemetry = telemetry

    def run_items(self, items: list[WorkItem]) -> list[WorkResult]:
        """Execute items in order; failures are captured per item."""
        return self.run_item_batches([items])[0]

    def run_item_batches(
        self, batches: list[list[WorkItem]]
    ) -> list[list[WorkResult]]:
        """Execute batches in order; the call's items share one stream cache."""
        with activate_streams(StreamCache()):
            return [
                [
                    run_item_isolated(
                        self.registry, item, self.retry, self.sleep,
                        self.fault_plan, self.telemetry,
                    )
                    for item in batch
                ]
                for batch in batches
            ]


# -- process pool -----------------------------------------------------------

# Worker-process state, installed once per worker by the pool
# initializer: the registry is built in the worker (it holds closures
# and cannot be pickled), and the fault plan and telemetry plan arrive
# once at pool start instead of being pickled with every item.
_worker_registry: OperationRegistry | None = None
_worker_fault_plan: FaultPlan | None = None
_worker_telemetry: TelemetryPlan | None = None


def _pool_init(
    factory: RegistryFactory | str | None,
    fault_plan: FaultPlan | None,
    telemetry: TelemetryPlan | None,
) -> None:
    """Pool initializer: runs once in each worker process.

    Besides the worker state, it installs one stream cache for the
    worker's lifetime, so every workpackage the worker executes shares
    the arrival streams generated before it.
    """
    global _worker_registry, _worker_fault_plan, _worker_telemetry
    _worker_registry = resolve_registry_factory(factory)()
    _worker_fault_plan = fault_plan
    _worker_telemetry = telemetry
    set_stream_cache(StreamCache())


def _pool_worker(item: WorkItem) -> WorkResult:
    """Executed in the worker process: run one item; only it is pickled.

    Transient failures retry under the default :class:`RetryPolicy`,
    sleeping in real time.
    """
    return run_item_isolated(
        _worker_registry, item,
        fault_plan=_worker_fault_plan, telemetry=_worker_telemetry,
    )


def _pool_worker_batch(items: tuple[WorkItem, ...]) -> list[WorkResult]:
    """Run a whole batch in one worker dispatch (one pickle round-trip).

    The items of a batch share the worker's stream cache, so K
    configurations over one arrival stream generate it at most once.
    """
    return [_pool_worker(item) for item in items]


class PoolExecutor:
    """Process-pool executor: one step's workpackages fan out over cores.

    The pool is **persistent**: it spins up lazily on the first
    ``run_items`` and is reused across step barriers, so a multi-step
    campaign pays worker startup (process fork + registry build) once,
    not once per step.  Per-item pickling carries only the
    :class:`WorkItem` — the fault and telemetry plans ship once through
    the pool initializer — and dispatch uses a computed
    chunksize so thousands of small items don't drown in IPC overhead.

    ``run_items`` is a barrier — it returns only when every item has a
    result — so plugging this into :class:`~repro.jube.runner.JubeRunner`
    keeps dependency-ordered steps correct.  Failures are always
    captured (pool siblings must never be torn down by one bad item),
    and transient ones retry under the default :class:`RetryPolicy`.

    Call :meth:`close` (or use the executor as a context manager) to
    shut the workers down; an unclosed pool is reaped at process exit.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        registry_factory: RegistryFactory | str | None = None,
        fault_plan: FaultPlan | None = None,
        telemetry: TelemetryPlan | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.registry_factory = (
            registry_factory if registry_factory is not None else DEFAULT_REGISTRY_FACTORY
        )
        self.fault_plan = fault_plan  # plain data, ships to the workers too
        self.telemetry = telemetry  # frozen dataclass, ships to the workers
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._pool_config: tuple | None = None
        self._workers = 0
        # Fail fast on an unresolvable factory, in the parent process.
        resolve_registry_factory(self.registry_factory)

    def _config(self) -> tuple:
        return (self.registry_factory, self.fault_plan, self.telemetry)

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        """The persistent pool, (re)built if config changed since start."""
        config = self._config()
        if self._pool is not None and self._pool_config != config:
            self.close()
        if self._pool is None:
            workers = self.max_workers or min(os.cpu_count() or 8, 8)
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_init,
                initargs=config,
            )
            self._pool_config = config
            self._workers = workers
            logger.info("pool executor: started %d persistent workers", workers)
        return self._pool

    def run_items(self, items: list[WorkItem]) -> list[WorkResult]:
        """Execute items across the pool; results come back in order."""
        if not items:
            return []
        pool = self._ensure_pool()
        workers = self._workers
        # ~4 chunks per worker balances IPC overhead against stragglers.
        chunksize = max(1, len(items) // (workers * 4))
        logger.info(
            "pool executor: %d items across %d workers (chunksize %d)",
            len(items), workers, chunksize,
        )
        try:
            return list(pool.map(_pool_worker, items, chunksize=chunksize))
        except concurrent.futures.process.BrokenProcessPool:
            # A dead worker poisons the whole pool; drop it so the next
            # run_items starts fresh instead of failing forever.
            self.close()
            raise

    def run_item_batches(
        self, batches: list[list[WorkItem]]
    ) -> list[list[WorkResult]]:
        """Execute pre-grouped batches, one worker dispatch per batch.

        The batched seam of the sweep fast path: the caller groups K
        configurations sharing one arrival stream into a batch, the
        whole batch crosses the pool boundary as one task, and the
        worker's stream cache serves all K from one generation.
        """
        if not batches:
            return []
        pool = self._ensure_pool()
        logger.info(
            "pool executor: %d batches (%d items) across %d workers",
            len(batches), sum(len(b) for b in batches), self._workers,
        )
        try:
            return list(
                pool.map(
                    _pool_worker_batch,
                    [tuple(batch) for batch in batches],
                    chunksize=1,
                )
            )
        except concurrent.futures.process.BrokenProcessPool:
            self.close()
            raise

    def close(self) -> None:
        """Shut down the persistent pool (if running)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_config = None

    def __enter__(self) -> "PoolExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

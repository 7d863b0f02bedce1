"""Campaign orchestration: plan, cache-check, execute, record.

:class:`CampaignRunner` drives a :class:`~repro.campaign.spec.CampaignSpec`
through the JUBE machinery with the campaign guarantees layered on top:

* every planned workpackage is content-addressed
  (:mod:`repro.campaign.hashing`) and looked up in the result store
  first — an identical re-run executes nothing,
* misses go through a failure-isolating executor
  (:mod:`repro.campaign.executor`), so one crashing package never
  aborts its siblings; its failure is recorded as a durable row,
* ``continue_run`` re-plans and executes only what is missing (plus,
  by default, what previously failed) — resuming an interrupted
  campaign is the same cache walk as re-running a finished one.

Steps remain barriers: a workload that depends on another only plans
its keys once the dependency's rows exist, because dependency outputs
flow into both the workpackage and its hash.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from repro.campaign.executor import IsolatingExecutor
from repro.campaign.hashing import ResultKeyer, calibration_fingerprint, step_fingerprint
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.campaign.store import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_PRUNED,
    CampaignRow,
    ResultStore,
)
from repro.jube.parameters import expand_parameter_space
from repro.jube.runner import WorkItem, WorkpackageExecutor, work_item_for
from repro.jube.steps import order_steps
from repro.obs.log import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.trace import NULL_TRACER, get_tracer

logger = get_logger(__name__)

#: Default number of result rows buffered before a durable store flush.
#: Bounds what a crash can lose: at most this many completed-but-not-yet
#: -flushed rows ever exist, and ``campaign continue`` re-executes
#: exactly those (re-execution is safe — keys are content addresses).
FLUSH_BATCH = 64


@dataclass
class CampaignReport:
    """Outcome of one ``run``/``continue`` invocation."""

    campaign: str
    total: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    degraded: int = 0
    rows: list[CampaignRow] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Planned workpackages that are now completed."""
        return self.total - self.failed

    def describe(self) -> str:
        """One-line summary."""
        out = (
            f"campaign {self.campaign!r}: {self.total} workpackages, "
            f"{self.executed} executed, {self.cached} from cache, "
            f"{self.failed} failed"
        )
        if self.degraded:
            out += f", {self.degraded} degraded"
        return out


@dataclass(frozen=True)
class StepStatus:
    """Store-vs-plan state of one workload step.

    ``degraded`` counts completed rows that finished under injected
    faults; ``failures`` carries each failed row's provenance — index,
    attempts, error, and the faults that fired — so ``campaign status``
    can say *why* a package is failed, not just that it is.
    """

    step: str
    planned: int
    completed: int
    failed: int
    degraded: int = 0
    failures: tuple = ()
    pruned: int = 0

    @property
    def missing(self) -> int:
        """Planned workpackages with no row yet (pruned rows are not
        results, but they are accounted separately, not as missing)."""
        return self.planned - self.completed - self.failed - self.pruned


def _failure_entry(row: CampaignRow) -> dict:
    """Provenance of one failed row for :class:`StepStatus.failures`."""
    return {
        "index": row.index,
        "attempts": row.attempts,
        "error": row.error,
        "faults": [dict(f) for f in row.faults],
    }


@dataclass
class CampaignStatus:
    """Store-vs-plan state of a whole campaign."""

    campaign: str
    steps: list[StepStatus] = field(default_factory=list)

    @property
    def done(self) -> bool:
        """Whether every planned workpackage has an exact completed row.

        Pruned rows do not count: a searched campaign is *answered*
        but not exhaustively computed.
        """
        return all(
            s.missing == 0 and s.failed == 0 and s.pruned == 0
            for s in self.steps
        )

    def describe(self) -> str:
        """Multi-line summary, including failed rows' fault provenance."""
        lines = [f"campaign {self.campaign!r}:"]
        for s in self.steps:
            line = (
                f"  {s.step}: {s.completed}/{s.planned} completed, "
                f"{s.failed} failed, {s.missing} missing"
            )
            if s.pruned:
                line += f", {s.pruned} pruned"
            if s.degraded:
                line += f" ({s.degraded} degraded)"
            lines.append(line)
            for failure in s.failures:
                detail = (
                    f"    #{failure['index']}: failed after "
                    f"{failure['attempts']} attempt(s): {failure['error']}"
                )
                if failure["faults"]:
                    fired = ", ".join(
                        f"{f['label']}@{f['t']:g}s"
                        + (f" x{f['count']}" if f.get("count", 1) > 1 else "")
                        for f in failure["faults"]
                    )
                    detail += f" [faults: {fired}]"
                lines.append(detail)
        lines.append("status: " + ("done" if self.done else "incomplete"))
        return "\n".join(lines)


class CampaignRunner:
    """Executes campaign specs against a content-addressed store.

    ``faults`` turns the run into a chaos campaign: the plan is handed
    to the executor (unless it already carries one), its fingerprint
    joins every result key, and fault provenance lands on the rows.
    """

    def __init__(
        self,
        store: ResultStore,
        executor: WorkpackageExecutor | None = None,
        faults: FaultPlan | None = None,
        flush_batch: int = FLUSH_BATCH,
    ) -> None:
        if flush_batch < 1:
            raise ConfigError("flush_batch must be >= 1")
        self.store = store
        self.faults = faults
        self.flush_batch = flush_batch
        if executor is None:
            executor = IsolatingExecutor(fault_plan=faults)
        elif faults is not None and getattr(executor, "fault_plan", None) is None:
            if not hasattr(executor, "fault_plan"):
                raise ConfigError(
                    f"executor {type(executor).__name__} cannot inject faults"
                )
            executor.fault_plan = faults
        self.executor = executor

    @property
    def _fault_hash(self) -> str | None:
        return self.faults.fingerprint() if self.faults is not None else None

    # -- planning -----------------------------------------------------------

    def _planned_items(self, script, step, seeds, calibration_hash):
        """Keyed work items of one step, seeded from ``seeds``.

        Keys come from a :class:`ResultKeyer`: the step, calibration,
        and fault-plan fragments of the content address are serialized
        once per step, so each combo hashes only its own delta.
        """
        sets = [script.parameter_set(name) for name in step.parameter_sets]
        combos = expand_parameter_space(sets)
        keyer = ResultKeyer(step_fingerprint(step), calibration_hash, self._fault_hash)
        if step.depends:
            seeds_for = lambda name: seeds.get(name, [])  # noqa: E731
            planned = []
            for i, combo in enumerate(combos):
                item = work_item_for(step, combo, i, seeds_for)
                planned.append((keyer.key(combo, item.outputs), combo, i, item))
            return planned
        # Dependency-free steps seed nothing, so their work item is fully
        # determined by (step, combo, index).  Defer its construction to
        # cache misses: a fully cached re-run then only hashes keys.
        key = keyer.key
        return [(key(combo), combo, i, None) for i, combo in enumerate(combos)]

    def _lookup_planned(self, planned, metrics, step_name: str):
        """One bulk ``get_many`` over a step's planned keys."""
        start = time.perf_counter()
        found = self.store.get_many([p[0] for p in planned])
        metrics.histogram(
            "campaign_store_lookup_seconds", "bulk cache lookup time per step"
        ).observe(time.perf_counter() - start, step=step_name)
        return found

    # -- execution ----------------------------------------------------------

    def run(
        self,
        spec: CampaignSpec,
        *,
        resume: bool = True,
        retry_failed: bool = False,
    ) -> CampaignReport:
        """Execute the campaign; cache hits are not re-executed.

        With ``resume=False`` every workpackage re-executes and its row
        is superseded.  ``retry_failed`` additionally re-executes
        workpackages whose stored row is failed (``continue_run`` sets
        it).  Rows a search left as ``pruned`` are *always* treated as
        misses — their outputs are screening evidence, not results —
        so an exhaustive run over a searched store fills in exactly the
        configurations the search skipped.
        """
        script = spec.compile()
        calibration_hash = calibration_fingerprint()
        report = CampaignReport(campaign=spec.name)
        seeds: dict[str, list[CampaignRow]] = {}
        tracer = get_tracer()
        metrics = get_metrics()
        logger.info("campaign %s: run (resume=%s)", spec.name, resume)
        for step in order_steps(script.steps):
            plan_start = time.perf_counter()
            planned = self._planned_items(script, step, seeds, calibration_hash)
            metrics.histogram(
                "campaign_plan_seconds", "per-step planning (keying) time"
            ).observe(time.perf_counter() - plan_start, step=step.name)
            report.total += len(planned)

            stored = (
                self._lookup_planned(planned, metrics, step.name) if resume else {}
            )
            cache_hits = metrics.counter("campaign_cache_hits_total", "store hits")
            # Per-hit overheads are hoisted out of the loop: the counter
            # is bumped once per step (same final value), trace events
            # are skipped entirely under the null tracer, and debug
            # formatting only happens when the level is live.
            trace_hits = tracer is not NULL_TRACER
            debug_hits = logger.isEnabledFor(logging.DEBUG)
            hits = 0
            to_run: list[tuple[str, WorkItem]] = []
            final: dict[str, CampaignRow] = {}
            for key, combo, index, item in planned:
                row = stored.get(key)
                if row is not None and (
                    row.status == STATUS_COMPLETED
                    or (row.status == STATUS_FAILED and not retry_failed)
                ):
                    final[key] = row
                    if row.status == STATUS_COMPLETED:
                        hits += 1
                        if trace_hits:
                            tracer.event(
                                "campaign/cache_hit",
                                attrs={"step": step.name, "key": key[:12]},
                            )
                        if debug_hits:
                            logger.debug(
                                "cache hit %s#%d (%s)", step.name, index, key[:12]
                            )
                else:
                    if item is None:
                        item = WorkItem(step=step, parameters=combo, index=index)
                    to_run.append((key, item))
            if hits:
                report.cached += hits
                cache_hits.inc(hits, step=step.name)

            logger.info(
                "step %s: %d planned, %d cached, %d to execute",
                step.name, len(planned), len(planned) - len(to_run), len(to_run),
            )
            with tracer.span(
                "campaign/step",
                attrs={"step": step.name, "planned": len(planned), "misses": len(to_run)},
            ):
                results = self.executor.run_items([item for _, item in to_run])
            executed = metrics.counter(
                "campaign_executed_total", "workpackages executed"
            )
            failures = metrics.counter(
                "campaign_failures_total", "workpackages failed"
            )
            flush_timer = metrics.histogram(
                "campaign_store_flush_seconds", "put_many batch write time"
            )
            flushed = metrics.counter(
                "campaign_store_rows_flushed_total", "result rows written"
            )
            pending: list[CampaignRow] = []

            def flush() -> None:
                if not pending:
                    return
                start = time.perf_counter()
                self.store.put_many(pending)
                flush_timer.observe(time.perf_counter() - start, step=step.name)
                flushed.inc(len(pending), step=step.name)
                pending.clear()

            # Rows land in the store in bounded batches: each flush is
            # one durable write, and the finally-flush guarantees an
            # interrupted run loses at most ``flush_batch`` rows of
            # progress — which ``continue_run`` simply re-executes.
            try:
                for (key, item), result in zip(to_run, results):
                    row = CampaignRow.from_result(key, spec.name, item, result)
                    pending.append(row)
                    if len(pending) >= self.flush_batch:
                        flush()
                    final[key] = row
                    report.executed += 1
                    executed.inc(step=step.name)
                    if result.error:
                        failures.inc(step=step.name)
                        tracer.event(
                            "campaign/failure",
                            attrs={
                                "step": step.name,
                                "index": item.index,
                                "error": result.error,
                            },
                        )
                        logger.warning(
                            "workpackage %s#%d failed: %s",
                            step.name, item.index, result.error,
                        )
            finally:
                flush()

            step_rows = [final[p[0]] for p in planned]
            report.rows.extend(step_rows)
            step_completed: list[CampaignRow] = []
            for row in step_rows:
                if row.degraded:
                    report.degraded += 1
                if row.status == STATUS_COMPLETED:
                    step_completed.append(row)
                else:
                    report.failed += 1
            seeds[step.name] = step_completed
        logger.info("%s", report.describe())
        return report

    def continue_run(self, spec: CampaignSpec) -> CampaignReport:
        """Resume an interrupted campaign (also retries failed rows)."""
        return self.run(spec, resume=True, retry_failed=True)

    # -- inspection ---------------------------------------------------------

    def status(self, spec: CampaignSpec) -> CampaignStatus:
        """Compare the plan against the store without executing."""
        script = spec.compile()
        calibration_hash = calibration_fingerprint()
        status = CampaignStatus(campaign=spec.name)
        seeds: dict[str, list[CampaignRow]] = {}
        metrics = get_metrics()
        for step in order_steps(script.steps):
            planned = self._planned_items(script, step, seeds, calibration_hash)
            stored = self._lookup_planned(planned, metrics, step.name)
            completed = failed = degraded = pruned = 0
            step_completed: list[CampaignRow] = []
            failures: list[dict] = []
            for planned_item in planned:
                row = stored.get(planned_item[0])
                if row is None:
                    continue
                if row.completed:
                    completed += 1
                    if row.degraded:
                        degraded += 1
                    step_completed.append(row)
                elif row.status == STATUS_PRUNED:
                    pruned += 1
                else:
                    failed += 1
                    failures.append(_failure_entry(row))
            status.steps.append(
                StepStatus(
                    step=step.name,
                    planned=len(planned),
                    completed=completed,
                    failed=failed,
                    degraded=degraded,
                    failures=tuple(failures),
                    pruned=pruned,
                )
            )
            seeds[step.name] = step_completed
        return status

    def results(self, spec: CampaignSpec) -> list[CampaignRow]:
        """All stored rows of this campaign."""
        return self.store.query(campaign=spec.name)

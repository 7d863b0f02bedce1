"""Campaign-side stream planning and batched multi-config evaluation.

The parent-process half of the sweep fast path
(:mod:`repro.serve.streams` is the worker half):

* :func:`stream_spec_for_item` parses a planned workpackage's
  substituted serve operation through the operation's option table and
  builds the arrivals ``llm_serve`` / ``llm_serve_cluster`` would, so
  the parent knows the
  :class:`~repro.serve.streams.ArrivalStreamSpec` without running
  anything.
* :func:`plan_streams` generates each distinct stream family **once**
  (at the longest request count any item needs) and freezes it; the
  runner hands the result to ``executor.provide_streams`` and the pool
  initializer ships it to every worker.
* :func:`group_stream_batches` partitions work items into batches that
  share one arrival stream, and :func:`run_batches` dispatches them
  through an executor's batched seam (falling back to per-item
  execution on executors without one) — K configurations, one stream
  materialization, one worker dispatch per batch.
"""

from __future__ import annotations

from repro.core.options import OPERATION_OPTIONS, parse_options
from repro.core.registry import serve_arrivals
from repro.jube.parameters import substitute
from repro.jube.runner import WorkItem, WorkResult, parse_operation
from repro.serve.streams import ArrivalStreamSpec, FrozenStream

#: Operations whose arrival streams the campaign layer can pre-generate.
SERVE_OPERATIONS = ("llm_serve", "llm_serve_cluster")

#: Default number of configurations per batched worker dispatch.
DEFAULT_BATCH_SIZE = 16


def stream_spec_for_item(item: WorkItem) -> ArrivalStreamSpec | None:
    """The arrival stream a planned workpackage will consume, or None.

    The spec of the arrivals the serve operation builds from the same
    command.  Returns None for items with no serve operation and for
    serve operations with malformed arguments (execution will surface
    the real error), and never raises: stream planning is an
    optimization and must not fail a campaign.
    """
    for template in item.step.operations:
        try:
            name, args = parse_operation(substitute(template, item.parameters))
            if name in SERVE_OPERATIONS:
                options = parse_options(
                    name, OPERATION_OPTIONS[name], args, partial=True
                )
                return ArrivalStreamSpec.for_arrivals(serve_arrivals(options))
        except Exception:  # noqa: BLE001 — planning is best-effort
            return None
    return None


def plan_streams(items: list[WorkItem]) -> dict[tuple, FrozenStream]:
    """Generate each distinct stream family once, frozen for shipping.

    Of all items sharing a family, the longest request count wins, so
    the shipped stream covers every full run and every screening
    prefix of that family.
    """
    longest: dict[tuple, ArrivalStreamSpec] = {}
    for item in items:
        spec = stream_spec_for_item(item)
        if spec is None:
            continue
        held = longest.get(spec.family)
        if held is None or held.requests < spec.requests:
            longest[spec.family] = spec
    return {
        family: FrozenStream(spec.generator().generate())
        for family, spec in longest.items()
    }


def group_stream_batches(
    items: list[WorkItem], batch_size: int = DEFAULT_BATCH_SIZE
) -> list[list[WorkItem]]:
    """Partition items into stream-sharing batches of ``batch_size``.

    Items of the same stream family land in the same batches (so one
    worker dispatch materializes the stream once for all of them);
    items with no recognizable stream are batched together at the end.
    Order within a family follows input order, keeping results
    deterministic.
    """
    by_family: dict[object, list[WorkItem]] = {}
    for item in items:
        spec = stream_spec_for_item(item)
        family = spec.family if spec is not None else None
        by_family.setdefault(family, []).append(item)
    batches: list[list[WorkItem]] = []
    for family in sorted(by_family, key=lambda f: (f is None, str(f))):
        members = by_family[family]
        for start in range(0, len(members), batch_size):
            batches.append(members[start:start + batch_size])
    return batches


def run_batches(
    executor, batches: list[list[WorkItem]]
) -> list[list[WorkResult]]:
    """Dispatch batches through the executor's batched seam.

    Executors without ``run_item_batches`` (custom ones plugged into
    the campaign seam) degrade to one ``run_items`` call per batch —
    same results, just without the single-dispatch amortization.
    """
    if hasattr(executor, "run_item_batches"):
        return executor.run_item_batches(batches)
    return [executor.run_items(list(batch)) for batch in batches]

"""Campaign-side grouping of serve workpackages by arrival stream.

The parent-process half of the sweep fast path
(:mod:`repro.serve.streams` is the worker half):

* :func:`stream_spec_for_item` parses a planned workpackage's
  substituted serve operation through the operation's option table and
  returns the arrivals ``llm_serve`` / ``llm_serve_cluster`` would
  build, without running anything.
* :func:`plan_streams` groups items by the
  :func:`~repro.serve.streams.stream_family` of those arrivals.
* :func:`group_stream_batches` cuts the groups into batches, so one
  worker dispatch runs K configurations of one family and the worker's
  stream cache generates their stream once.
"""

from __future__ import annotations

from repro.core.options import OPERATION_OPTIONS, parse_options
from repro.core.registry import serve_arrivals
from repro.jube.parameters import substitute
from repro.jube.runner import WorkItem, parse_operation
from repro.serve.streams import stream_family

#: Operations whose arrival streams the campaign layer can group by.
SERVE_OPERATIONS = ("llm_serve", "llm_serve_cluster")

#: Default number of configurations per batched worker dispatch.
DEFAULT_BATCH_SIZE = 16


def stream_spec_for_item(item: WorkItem):
    """The arrivals a planned workpackage's serve operation builds, or None.

    Returns None for items with no serve operation and for serve
    operations with malformed arguments (execution will surface the
    real error), and never raises: stream grouping is an optimization
    and must not fail a campaign.
    """
    for template in item.step.operations:
        try:
            name, args = parse_operation(substitute(template, item.parameters))
            if name in SERVE_OPERATIONS:
                options = parse_options(
                    name, OPERATION_OPTIONS[name], args, partial=True
                )
                return serve_arrivals(options)
        except Exception:  # noqa: BLE001 — planning is best-effort
            return None
    return None


def plan_streams(items: list[WorkItem]) -> dict[tuple, list[WorkItem]]:
    """The items grouped by stream family, in input order.

    Items whose arrivals have no family are left out.
    """
    groups: dict[tuple, list[WorkItem]] = {}
    for item in items:
        family = stream_family(stream_spec_for_item(item))
        if family is not None:
            groups.setdefault(family, []).append(item)
    return groups


def group_stream_batches(
    items: list[WorkItem], batch_size: int = DEFAULT_BATCH_SIZE
) -> list[list[WorkItem]]:
    """Partition items into stream-sharing batches of ``batch_size``.

    Items of the same stream family land in the same batches; items
    with no family are batched together at the end.  Order within a
    family follows input order, keeping results deterministic.
    """
    groups = list(plan_streams(items).values())
    grouped = {id(item) for group in groups for item in group}
    groups.append([item for item in items if id(item) not in grouped])
    return [
        group[start:start + batch_size]
        for group in groups
        for start in range(0, len(group), batch_size)
    ]

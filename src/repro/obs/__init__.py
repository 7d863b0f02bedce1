"""Observability for the CARAML reproduction.

The paper's value is measurement; this package makes the reproduction
itself measurable.  Four pieces:

* :mod:`repro.obs.trace` — span tracer (context manager + decorator)
  recording nested spans, instant events and counter tracks against
  wall time or the simulated :class:`~repro.simcluster.clock.VirtualClock`,
* :mod:`repro.obs.sinks` — in-memory, JSONL and Chrome Trace Event /
  Perfetto sinks (traces open in ``ui.perfetto.dev``),
* :mod:`repro.obs.metrics` — labelled counters/gauges/histograms with
  snapshot export,
* :mod:`repro.obs.log` — ``repro.*`` logger namespace + CLI verbosity,
* :mod:`repro.obs.summary` — per-span time/energy breakdown of a
  recorded trace (``caraml trace summary``),
* :mod:`repro.obs.telemetry` — the *live* layer: fixed-interval
  sampling into ring timeseries, P² percentile sketches, SLO burn-rate
  alerting, OpenMetrics/JSONL exporters and the ``caraml watch``
  dashboard.

Tracing is off by default and free when off: the active tracer is a
no-op :class:`~repro.obs.trace.NullTracer` until a CLI ``--trace`` flag
or :func:`~repro.obs.trace.activate` installs a real one.
"""

from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.sinks import (
    InMemorySink,
    JsonlSink,
    PerfettoSink,
    load_jsonl,
    records_to_trace_events,
    sink_for_path,
    validate_trace_events,
    write_perfetto,
)
from repro.obs.summary import (
    TraceSummary,
    load_trace,
    render_summary,
    summarize,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    activate,
    get_tracer,
    set_tracer,
)

__all__ = [
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "NullTracer",
    "PerfettoSink",
    "TraceSummary",
    "Tracer",
    "activate",
    "configure_logging",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "load_jsonl",
    "load_trace",
    "records_to_trace_events",
    "render_summary",
    "set_metrics",
    "set_tracer",
    "sink_for_path",
    "summarize",
    "validate_trace_events",
    "write_perfetto",
]

"""Request-level serving: arrivals, continuous batching, latency SLOs.

The layer that turns the inference roofline model into a traffic-serving
system: seeded arrival generators (:mod:`repro.serve.arrivals`), a
bounded admission queue (:mod:`repro.serve.queue`), an iteration-level
continuous-batching scheduler (:mod:`repro.serve.scheduler`) and the
measured simulator (:mod:`repro.serve.simulator`) that reports
per-request TTFT/TPOT/E2E percentiles, SLO attainment, goodput, and
energy per request through the same jpwr path as the training engines.
The :mod:`repro.serve.cluster` subpackage scales the same model to a
multi-replica fleet with routing, disaggregation and autoscaling.
"""

from repro.serve.arrivals import (
    BurstArrivals,
    FixedArrivals,
    PoissonArrivals,
    Request,
    SessionArrivals,
    TraceArrivals,
)
from repro.serve.queue import DEFAULT_QUEUE_CAPACITY, AdmissionQueue
from repro.serve.result import (
    NO_RECORDS_MESSAGE,
    PERCENTILE_MODE_EXACT,
    PERCENTILE_MODE_SKETCH,
    PERCENTILE_MODES,
    LatencySummary,
    RequestRecord,
    ServeResult,
    ServeSummary,
    SLOPolicy,
    StreamingSummarizer,
    percentile,
    summarize,
)
from repro.serve.scheduler import (
    DEFAULT_BATCH_CAP,
    ContinuousBatchScheduler,
    Sequence,
)
from repro.serve.simulator import ServingSimulator
from repro.serve.streams import (
    StreamCache,
    activate_streams,
    get_stream_cache,
    set_stream_cache,
    shared_requests,
    stream_family,
)

__all__ = [
    "AdmissionQueue",
    "BurstArrivals",
    "ContinuousBatchScheduler",
    "DEFAULT_BATCH_CAP",
    "DEFAULT_QUEUE_CAPACITY",
    "FixedArrivals",
    "LatencySummary",
    "NO_RECORDS_MESSAGE",
    "PERCENTILE_MODES",
    "PERCENTILE_MODE_EXACT",
    "PERCENTILE_MODE_SKETCH",
    "PoissonArrivals",
    "Request",
    "RequestRecord",
    "SLOPolicy",
    "Sequence",
    "ServeResult",
    "ServeSummary",
    "ServingSimulator",
    "SessionArrivals",
    "StreamCache",
    "StreamingSummarizer",
    "TraceArrivals",
    "activate_streams",
    "get_stream_cache",
    "percentile",
    "set_stream_cache",
    "shared_requests",
    "stream_family",
    "summarize",
]

"""Shared metric, gauge and trace-track names of the serving layer.

The serving simulator, the cluster simulator, the telemetry sampler and
the test suite all refer to the same gauge/counter names; keeping the
strings here (instead of scattered per-module literals) makes a rename
a one-line change and lets the sampler enumerate what it may observe.
"""

from __future__ import annotations

# -- single-engine serving ---------------------------------------------------

#: Trace track request spans and the queue-depth counter live on.
SERVE_TRACK = "serve"

#: Metrics-registry gauge recording the admission queue depth; tagged
#: with ``system=<jube tag>`` so multi-system sweeps stay separable.
QUEUE_DEPTH_GAUGE = "serve_queue_depth"

#: Help string of :data:`QUEUE_DEPTH_GAUGE`.
QUEUE_DEPTH_GAUGE_HELP = "requests waiting for admission"

#: Trace counter track mirroring :data:`QUEUE_DEPTH_GAUGE` over
#: simulated time in ``--trace`` runs.
QUEUE_DEPTH_COUNTER = "serve/queue_depth"

# -- multi-replica cluster ---------------------------------------------------

#: Trace track cluster request spans and counters live on.
CLUSTER_TRACK = "cluster"

#: Trace counter of requests waiting across all replica queues.
CLUSTER_QUEUE_DEPTH_COUNTER = "cluster/queue_depth"

#: Trace counter of powered-on replicas over simulated time.
CLUSTER_REPLICAS_COUNTER = "cluster/replicas_on"

#: Metrics gauge mirroring :data:`CLUSTER_REPLICAS_COUNTER`.
CLUSTER_REPLICAS_GAUGE = "cluster_replicas_on"

#: Help string of :data:`CLUSTER_REPLICAS_GAUGE`.
CLUSTER_REPLICAS_GAUGE_HELP = "powered-on cluster replicas"

# -- telemetry timeseries names ----------------------------------------------
# Series the TelemetrySampler registers for live serve / cluster runs.
# Per-replica series carry a ``replica=<index>`` label.

#: Sampled admission-queue depth (per replica on a cluster).
TS_QUEUE_DEPTH = "telemetry_queue_depth"

#: Sampled continuous-batching occupancy (decoding sequences).
TS_BATCH_OCCUPANCY = "telemetry_batch_occupancy"

#: Sampled KV-cache utilisation in [0, 1] of the batch's reservation.
TS_KV_UTILISATION = "telemetry_kv_utilisation"

#: Sampled instantaneous electrical power of one replica, in watts.
TS_POWER_WATTS = "telemetry_power_watts"

#: Sampled count of powered-on replicas (fleet-level series).
TS_REPLICAS_ON = "telemetry_replicas_on"

#: Sampled rolling-window TTFT p95 over completed requests, seconds.
TS_TTFT_ROLLING_P95 = "telemetry_ttft_rolling_p95_s"

#: Trace track telemetry alerts and samples land on.
TELEMETRY_TRACK = "telemetry"

#: Trace instant event emitted when a burn-rate alert fires.
ALERT_FIRED_EVENT = "slo/alert_fired"

#: Trace instant event emitted when a burn-rate alert clears.
ALERT_CLEARED_EVENT = "slo/alert_cleared"

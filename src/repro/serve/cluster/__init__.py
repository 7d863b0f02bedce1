"""Multi-replica serving cluster: routing, disaggregation, autoscaling.

The fleet layer above the single-engine serving simulator: N engine
replicas on one shared virtual clock (:mod:`.simulator`), a pluggable
router policy registry (:mod:`.router`), disaggregated prefill/decode
pools with a costed KV handoff (:mod:`.disagg`), and a queue-depth
autoscaler with spin-up cost and idle-replica power (:mod:`.autoscaler`).
"""

from repro.serve.cluster.autoscaler import (
    AutoscalePolicy,
    Autoscaler,
    DEFAULT_EVALUATE_INTERVAL_S,
    DEFAULT_SCALE_DOWN_IDLE_S,
    DEFAULT_SPINUP_DELAY_S,
    DEFAULT_SPINUP_UTILISATION,
    DEFAULT_TARGET_QUEUE_PER_REPLICA,
)
from repro.serve.cluster.disagg import (
    DisaggregationSpec,
    KVTransfer,
    KV_TRANSFER_PJ_PER_BIT,
    transfer_energy_wh,
    transfer_time_s,
)
from repro.serve.cluster.replica import (
    DEFAULT_PREFIX_CACHE_SLOTS,
    Replica,
    ReplicaRole,
    ReplicaState,
    ReplicaStats,
)
from repro.serve.cluster.result import ClusterRecord, ClusterSummary
from repro.serve.cluster.router import (
    DEFAULT_ROUTER_POLICY,
    ROUTER_POLICIES,
    Router,
    make_router,
    register_router,
)
from repro.serve.cluster.simulator import ClusterSimulator
from repro.serve.constants import CLUSTER_TRACK

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "CLUSTER_TRACK",
    "ClusterRecord",
    "ClusterSimulator",
    "ClusterSummary",
    "DEFAULT_EVALUATE_INTERVAL_S",
    "DEFAULT_PREFIX_CACHE_SLOTS",
    "DEFAULT_ROUTER_POLICY",
    "DEFAULT_SCALE_DOWN_IDLE_S",
    "DEFAULT_SPINUP_DELAY_S",
    "DEFAULT_SPINUP_UTILISATION",
    "DEFAULT_TARGET_QUEUE_PER_REPLICA",
    "DisaggregationSpec",
    "KVTransfer",
    "KV_TRANSFER_PJ_PER_BIT",
    "ROUTER_POLICIES",
    "Replica",
    "ReplicaRole",
    "ReplicaState",
    "ReplicaStats",
    "Router",
    "make_router",
    "register_router",
    "transfer_energy_wh",
    "transfer_time_s",
]

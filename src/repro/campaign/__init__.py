"""The campaign layer: parallel sweep execution with a durable store.

CARAML's value is sweeping a (system × workload × parameter) space and
comparing throughput and energy across it.  This package makes that
sweep a first-class subsystem:

* :class:`~repro.campaign.spec.CampaignSpec` declares the cross-product
  and compiles it to the JUBE workpackage machinery,
* :class:`~repro.campaign.executor.PoolExecutor` fans workpackages out
  over a process pool (bit-identical to sequential execution),
* :class:`~repro.campaign.store.ResultStore` persists every result
  content-addressed by (script, parameters, calibration constants), so
  re-running is an exact cache hit and interrupted campaigns resume,
* :class:`~repro.campaign.runner.CampaignRunner` ties them together
  with failure isolation and retry-with-backoff,
* :class:`~repro.campaign.search.SearchRunner` prunes serve sweeps on
  the SLO-energy Pareto frontier while keeping every reported row an
  exact full run.  Its batches group configurations by arrival stream
  (:mod:`repro.campaign.batch`), and each executor process generates a
  stream once for every configuration and prefix that replays it
  (:mod:`repro.serve.streams`).

See the "Campaign layer" and "Sweep fast path" sections of
ARCHITECTURE.md.
"""

from repro.campaign.batch import (
    group_stream_batches,
    plan_streams,
    stream_spec_for_item,
)
from repro.campaign.executor import (
    DEFAULT_REGISTRY_FACTORY,
    IsolatingExecutor,
    PoolExecutor,
    RetryPolicy,
)
from repro.campaign.hashing import (
    ResultKeyer,
    calibration_fingerprint,
    result_key,
)
from repro.campaign.runner import (
    FLUSH_BATCH,
    CampaignReport,
    CampaignRunner,
    CampaignStatus,
    StepStatus,
)
# Chaos campaigns: the fault-plan API, re-exported for convenience
# (CampaignRunner/executors take these directly).
from repro.faults import FaultPlan, FaultSpec, load_fault_plan
from repro.campaign.search import (
    SearchPolicy,
    SearchReport,
    SearchRunner,
    load_search_spec,
)
from repro.campaign.spec import CampaignSpec, WorkloadSpec, load_campaign_spec
from repro.campaign.store import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_PRUNED,
    CampaignRow,
    JsonlStore,
    ResultStore,
    SqliteStore,
    canonical_json,
    open_store,
)

__all__ = [
    "CampaignReport",
    "CampaignRow",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "DEFAULT_REGISTRY_FACTORY",
    "FLUSH_BATCH",
    "FaultPlan",
    "FaultSpec",
    "IsolatingExecutor",
    "JsonlStore",
    "PoolExecutor",
    "ResultKeyer",
    "ResultStore",
    "RetryPolicy",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "STATUS_PRUNED",
    "SearchPolicy",
    "SearchReport",
    "SearchRunner",
    "SqliteStore",
    "StepStatus",
    "WorkloadSpec",
    "calibration_fingerprint",
    "canonical_json",
    "group_stream_batches",
    "load_campaign_spec",
    "load_fault_plan",
    "load_search_spec",
    "open_store",
    "plan_streams",
    "result_key",
    "stream_spec_for_item",
]

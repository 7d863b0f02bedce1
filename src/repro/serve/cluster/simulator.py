"""Multi-replica serving cluster on one shared virtual clock.

:class:`ClusterSimulator` is the fleet counterpart of
:class:`~repro.serve.simulator.ServingSimulator`: N engine replicas,
each with its own admission queue, continuous-batching scheduler,
prefix registry and power curve, driven as a discrete-event simulation
on one :class:`~repro.simcluster.clock.VirtualClock`.  Arriving
requests are placed by a pluggable :class:`~repro.serve.cluster.router`
policy; optionally the fleet is split into disaggregated prefill and
decode pools with a KV handoff over the interconnect, or governed by a
queue-depth autoscaler with spin-up cost and idle-replica power.

Energy is integrated analytically per replica from its calibrated
power model over the piecewise-constant utilisation profile the event
loop produces — the same affine model jpwr samples in single-engine
runs, but integrated exactly instead of trapezoidally, because replicas
advance through *independent* phase boundaries that a single shared
sample frame cannot straddle.  Busy-phase energy is attributed to
requests by the **incremental cursor**: every decode step advances a
per-replica running per-member share cursor
(``replica.decode_cursor_wh``), a request's decode energy is the cursor
difference between its admission snapshot and its completion, and its
prefill energy is booked directly at prefill completion; idle, spin-up
and transfer energy stay cluster-level so Wh/request is honest about
overprovisioning.

The event loop itself lives in :mod:`repro.serve.cluster.fastsim`.
Runs are deterministic: the same arrival seed and cluster configuration
produce byte-identical per-request records.
"""

from __future__ import annotations

from repro.engine.inference import InferenceEngine
from repro.engine.trainer import TrainResult
from repro.errors import ConfigError
from repro.obs.metrics import get_metrics
from repro.obs.telemetry.sampler import TelemetrySampler
from repro.obs.telemetry.slo import SLOMonitor
from repro.obs.trace import get_tracer
from repro.serve.arrivals import Request
from repro.serve.cluster.autoscaler import AutoscalePolicy
from repro.serve.cluster.disagg import DisaggregationSpec
from repro.serve.cluster.fastsim import _ClusterLoop
from repro.serve.cluster.replica import Replica, ReplicaRole
from repro.serve.cluster.result import ClusterSummary
from repro.serve.cluster.router import DEFAULT_ROUTER_POLICY, Router, make_router
from repro.serve.queue import DEFAULT_QUEUE_CAPACITY
from repro.serve.result import (
    PERCENTILE_MODE_EXACT,
    PERCENTILE_MODES,
    ServeResult,
    SLOPolicy,
    summarize_completions,
)
from repro.serve.scheduler import DEFAULT_BATCH_CAP
from repro.serve.streams import shared_requests
from repro.simcluster.clock import VirtualClock


def _default_link(engine: InferenceEngine):
    """The link a disaggregated KV handoff crosses.

    Replicas of a multi-node system sit on separate nodes (inter-node
    fabric); on a single-node system the replicas share the node and
    hand off over the accelerator interconnect, or — on single-device
    superchips like GH200 — staged through host memory over the
    CPU-accelerator link.
    """
    node = engine.node
    for link in (node.internode_link, node.accel_accel_link, node.cpu_accel_link):
        if link.bandwidth > 0:
            return link
    raise ConfigError(
        f"system {node.jube_tag} has no link with bandwidth for a KV handoff"
    )


class ClusterSimulator:
    """Serves a request stream on a fleet of engine replicas.

    Parameters
    ----------
    engine:
        The per-replica roofline/memory model (a homogeneous fleet).
    replicas:
        Replica count of a unified cluster (ignored when
        ``disaggregation`` sets the pool sizes).
    router:
        Policy name from
        :data:`~repro.serve.cluster.router.ROUTER_POLICIES`.
    batch_cap / queue_capacity:
        Per-replica continuous-batching cap and admission bound.
    slo:
        Latency objectives for attainment/goodput accounting.
    autoscale:
        Optional :class:`AutoscalePolicy`; the cluster then starts at
        ``min_replicas`` powered on with the rest as stopped spares.
    disaggregation:
        Optional :class:`DisaggregationSpec` splitting the fleet into
        prefill and decode pools with a KV handoff per request.
    telemetry:
        Optional :class:`~repro.obs.telemetry.sampler.TelemetrySampler`;
        when given, every replica registers queue-depth,
        batch-occupancy, KV-utilisation and instantaneous-watts probes
        (labelled ``replica=<index>``) plus a fleet-level replicas-on
        series, sampled at every crossed boundary of the event loop.
    slo_monitor:
        Optional :class:`~repro.obs.telemetry.slo.SLOMonitor` fed one
        attainment observation per completion; alert transitions go to
        the trace, the summary to ``ServeResult.alerts``.
    percentile_mode:
        ``"exact"`` (default) or ``"p2"`` — see
        :class:`~repro.serve.simulator.ServingSimulator`.  ``"p2"``
        streams completions in completion order and stores no
        per-request records; it bounds the summary's memory, while the
        loop's completion list and per-request routing and energy maps
        still grow with the run.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        *,
        replicas: int = 2,
        router: str = DEFAULT_ROUTER_POLICY,
        batch_cap: int = DEFAULT_BATCH_CAP,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        slo: SLOPolicy | None = None,
        autoscale: AutoscalePolicy | None = None,
        disaggregation: DisaggregationSpec | None = None,
        telemetry: TelemetrySampler | None = None,
        slo_monitor: SLOMonitor | None = None,
        percentile_mode: str = PERCENTILE_MODE_EXACT,
    ) -> None:
        if replicas < 1:
            raise ConfigError("cluster needs at least one replica")
        if percentile_mode not in PERCENTILE_MODES:
            raise ConfigError(
                f"unknown percentile mode {percentile_mode!r}; "
                f"known: {PERCENTILE_MODES}"
            )
        if autoscale is not None and disaggregation is not None:
            raise ConfigError(
                "autoscaling a disaggregated cluster is not supported yet: "
                "pick one of autoscale= or disaggregation="
            )
        self.engine = engine
        self.router_name = router
        make_router(router)  # validate the name eagerly
        self.batch_cap = int(batch_cap)
        self.queue_capacity = int(queue_capacity)
        self.slo = slo if slo is not None else SLOPolicy()
        self.autoscale = autoscale
        self.disaggregation = disaggregation
        self.telemetry = telemetry
        self.slo_monitor = slo_monitor
        self.percentile_mode = percentile_mode
        if disaggregation is not None:
            self.n_replicas = disaggregation.total_replicas
        else:
            self.n_replicas = int(replicas)
        self.link = _default_link(engine)
        if autoscale is not None and autoscale.min_replicas > self.n_replicas:
            raise ConfigError(
                "autoscale min_replicas exceeds the cluster size"
            )
        self.requests_by_index: dict[int, Request] = {}

    def make_router(self) -> Router:
        """A fresh router instance for one run."""
        return make_router(self.router_name)

    def _make_loop(
        self, requests: tuple[Request, ...], clock
    ) -> _ClusterLoop:
        """The run's event loop."""
        return _ClusterLoop(self, requests, clock)

    def make_replicas(self, start_s: float) -> list[Replica]:
        """The run's replica fleet in index order."""
        fleet: list[Replica] = []
        for i in range(self.n_replicas):
            if self.disaggregation is not None:
                role = (
                    ReplicaRole.PREFILL
                    if i < self.disaggregation.prefill_replicas
                    else ReplicaRole.DECODE
                )
            else:
                role = ReplicaRole.UNIFIED
            started = True
            if self.autoscale is not None:
                started = i < self.autoscale.min_replicas
            replica = Replica(
                i,
                self.engine,
                batch_cap=self.batch_cap,
                queue_capacity=self.queue_capacity,
                role=role,
                started=started,
                start_s=start_s,
            )
            fleet.append(replica)
        return fleet

    def run(self, arrivals) -> ServeResult:
        """Serve ``arrivals.generate()`` on the fleet; returns the result.

        Raises :class:`ConfigError` when any generated request could
        never fit a replica's KV budget.
        """
        requests = shared_requests(arrivals)
        if not requests:
            raise ConfigError("arrival process generated no requests")
        tracer = get_tracer()
        clock = (
            tracer.virtual_clock
            if tracer.virtual_clock is not None
            else VirtualClock()
        )
        self.requests_by_index = {r.index: r for r in requests}
        if self.telemetry is not None and not self.telemetry.attached:
            self.telemetry.attach_registry(get_metrics())
        loop = self._make_loop(requests, clock)
        probe = loop.replicas[0].scheduler
        for request in requests:
            probe.admissible(request)
        with tracer.span(
            "cluster/run",
            attrs={
                "model": self.engine.model.name,
                "replicas": self.n_replicas,
                "router": self.router_name,
                "requests": len(requests),
            },
        ):
            loop.run()
        if self.telemetry is not None:
            self.telemetry.finish(clock.now())
        elapsed = clock.now() - loop.start_s
        rejected = loop.rejected()
        serve_summary, records = summarize_completions(
            loop.records(),
            percentile_mode=self.percentile_mode,
            slo=self.slo,
            offered=len(requests),
            rejected=len(rejected),
            elapsed_s=elapsed,
            keep=loop.routed_record,
        )
        summary = ClusterSummary(
            serve=serve_summary,
            router=self.router_name,
            replicas=tuple(r.stats() for r in loop.replicas),
            replicas_max=self.n_replicas,
            disaggregated=self.disaggregation is not None,
            transfers=loop.transfer_count,
            transfer_s_total=loop.transfer_s_total,
            transfer_energy_wh=loop.transfer_energy_total_wh,
            spinups=sum(r.spinups for r in loop.replicas),
        )
        self._observe(summary)
        train = self._train_result(summary, elapsed)
        return ServeResult(
            train=train,
            summary=summary,
            records=records,
            rejected=rejected,
            alerts=(
                self.slo_monitor.to_dict() if self.slo_monitor is not None else None
            ),
        )

    def _train_result(
        self, summary: ClusterSummary, elapsed: float
    ) -> TrainResult:
        """The cluster run flattened to a result-table row."""
        extra = summary.to_dict()
        extra.pop("elapsed_s", None)  # already a TrainResult field
        extra["batch_cap"] = float(self.batch_cap)
        decode_steps = sum(r.decode_steps for r in summary.replicas)
        per_device_wh = (
            summary.energy_wh / summary.replicas_max
            if summary.replicas_max
            else 0.0
        )
        return TrainResult(
            system_tag=self.engine.node.jube_tag,
            benchmark=f"llm-serve-cluster-{self.engine.model.name}",
            global_batch_size=self.batch_cap,
            devices=summary.replicas_max,
            iterations=decode_steps,
            elapsed_s=elapsed,
            throughput=summary.serve.throughput_tokens_per_s,
            throughput_unit="tokens_per_s",
            energy_per_device_wh=per_device_wh,
            mean_power_per_device_w=(
                per_device_wh * 3600.0 / elapsed if elapsed > 0 else 0.0
            ),
            extra=extra,
        )

    def _observe(self, summary: ClusterSummary) -> None:
        """Record the run's cluster metrics on the process registry."""
        metrics = get_metrics()
        tag = self.engine.node.jube_tag
        metrics.counter(
            "cluster_requests_completed_total",
            "requests served to completion by the cluster",
        ).inc(summary.serve.completed, system=tag, router=self.router_name)
        if summary.serve.rejected:
            metrics.counter(
                "cluster_requests_rejected_total",
                "requests shed at cluster admission",
            ).inc(summary.serve.rejected, system=tag, router=self.router_name)
        if summary.spinups:
            metrics.counter(
                "cluster_replica_spinups_total",
                "replica spin-ups the autoscaler performed",
            ).inc(summary.spinups, system=tag)

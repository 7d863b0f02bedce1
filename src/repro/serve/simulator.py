"""Request-level serving simulation on the virtual clock.

:class:`ServingSimulator` drives a :class:`ContinuousBatchScheduler`
through a seeded arrival stream under the same jpwr measurement scope
the training engines use:

* arrivals land in the bounded :class:`AdmissionQueue` (overflow is
  shed and reported),
* between decode steps the scheduler admits waiting requests (each pays
  its prefill at the compute-bound utilisation point) and evicts
  finished sequences,
* every decode step advances the whole batch by one token at the
  roofline step time for the *current* batch size — continuous
  batching's throughput advantage over lock-step batches falls out of
  the model rather than being asserted,
* measured energy is attributed to individual requests by the
  **incremental cursor** (:func:`repro.serve.soa.attribute_request_energy_wh`):
  each phase boundary is interpolated on the jpwr cumulative-energy
  curve exactly once, a prefill's energy goes to its request, and a
  decode residency is priced as the difference of a running per-member
  share cursor.

The event loop itself lives in :mod:`repro.serve.fastsim`.  Runs are
deterministic: the same arrival seed and fault plan produce
byte-identical per-request records and traces.  The fault injection
seams of the training path (OOM at a step index, stragglers, sensor
faults) apply unchanged.
"""

from __future__ import annotations

from repro.engine.inference import InferenceEngine
from repro.engine.trainer import TrainResult, measure_run
from repro.errors import ConfigError
from repro.obs.metrics import get_metrics
from repro.obs.telemetry.sampler import TelemetrySampler
from repro.obs.telemetry.slo import SLOMonitor
from repro.obs.trace import get_tracer
from repro.serve.arrivals import Request
from repro.serve.constants import SERVE_TRACK
from repro.serve.fastsim import _ServeLoop
from repro.serve.queue import DEFAULT_QUEUE_CAPACITY
from repro.serve.result import (
    PERCENTILE_MODE_EXACT,
    PERCENTILE_MODE_SKETCH,
    PERCENTILE_MODES,
    RequestRecord,
    ServeResult,
    ServeSummary,
    SLOPolicy,
    summarize_completions,
)
from repro.serve.scheduler import DEFAULT_BATCH_CAP
from repro.serve.streams import shared_requests


class ServingSimulator:
    """Serves a request stream on one device of a GPU system.

    Parameters
    ----------
    engine:
        The roofline/memory model of the system under test.
    batch_cap:
        Maximum concurrently decoding sequences.
    queue_capacity:
        Admission-queue bound; arrivals beyond it are shed.
    slo:
        Latency objectives for attainment/goodput accounting.
    telemetry:
        Optional :class:`~repro.obs.telemetry.sampler.TelemetrySampler`;
        when given, the loop registers queue-depth, batch-occupancy,
        KV-utilisation and rolling-TTFT probes and ticks it on every
        clock advance.  ``None`` (the default) keeps the hot path free
        of telemetry branches beyond one ``is None`` check.
    slo_monitor:
        Optional :class:`~repro.obs.telemetry.slo.SLOMonitor` fed one
        attainment observation per completion; its alert transitions
        are mirrored onto the trace and its summary lands on
        ``ServeResult.alerts``.
    percentile_mode:
        ``"exact"`` (default) sorts stored latencies;
        ``"p2"`` summarises via streaming P² sketches fed in
        completion order (within the documented tolerance of exact) and
        stores **no** per-request records.  It bounds the summary's
        memory; the loop still holds every completion until the run
        ends.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        *,
        batch_cap: int = DEFAULT_BATCH_CAP,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        slo: SLOPolicy | None = None,
        telemetry: TelemetrySampler | None = None,
        slo_monitor: SLOMonitor | None = None,
        percentile_mode: str = PERCENTILE_MODE_EXACT,
    ) -> None:
        self.engine = engine
        self.batch_cap = int(batch_cap)
        self.queue_capacity = int(queue_capacity)
        self.slo = slo if slo is not None else SLOPolicy()
        self.telemetry = telemetry
        self.slo_monitor = slo_monitor
        if percentile_mode not in PERCENTILE_MODES:
            raise ConfigError(
                f"unknown percentile mode {percentile_mode!r}; "
                f"known: {PERCENTILE_MODES}"
            )
        self.percentile_mode = percentile_mode
        # Validate the cap against the engine's own planner once.
        if batch_cap < 1:
            raise ConfigError("batch cap must be >= 1")

    def _make_loop(self, requests: tuple[Request, ...]) -> _ServeLoop:
        """The run's event loop."""
        return _ServeLoop(self, requests)

    def run(self, arrivals) -> ServeResult:
        """Serve ``arrivals.generate()`` end to end; returns the result.

        Raises :class:`ConfigError` when any generated request could
        never fit the KV budget (it would stall the scheduler forever),
        and propagates engine errors (injected OOM, measurement
        failures) exactly like the training engines do.
        """
        requests = shared_requests(arrivals)
        if not requests:
            raise ConfigError("arrival process generated no requests")
        if self.telemetry is not None and not self.telemetry.attached:
            self.telemetry.attach_registry(get_metrics())
        loop = self._make_loop(requests)
        for request in requests:
            loop.scheduler.admissible(request)

        exact = self.percentile_mode != PERCENTILE_MODE_SKETCH
        completed: list[RequestRecord] = []

        def body(runner, clock):
            loop.begin(clock)
            loop.run(runner, clock)
            loop.attribute_energy(runner)
            if not exact:
                return
            # Request spans land inside the run's span, in completion order.
            completed.extend(loop.records())
            tracer = get_tracer()
            if tracer.enabled:
                for record in completed:
                    tracer.complete_span(
                        "serve/request",
                        record.arrival_s,
                        record.completed_s,
                        attrs={
                            "index": record.index,
                            "ttft_s": round(record.ttft_s, 6),
                            "tokens": record.generate_tokens,
                        },
                        track=SERVE_TRACK,
                    )

        _, elapsed, energy_wh, mean_power = measure_run(
            self.engine.node,
            1,
            body,
            span_name="serve/run",
            span_attrs={
                "model": self.engine.model.name,
                "batch_cap": self.batch_cap,
                "requests": len(requests),
            },
        )
        if self.telemetry is not None:
            self.telemetry.finish(loop.clock.now())
        summary, records = summarize_completions(
            completed if exact else loop.records(),
            percentile_mode=self.percentile_mode,
            slo=self.slo,
            offered=len(requests),
            rejected=loop.queue.rejected_count,
            elapsed_s=elapsed,
        )
        # Latency histograms observe the summary's order: request index
        # when records are kept, completion order when streamed.
        self._observe(summary, records if exact else loop.records())
        extra = summary.to_dict()
        extra.pop("elapsed_s", None)  # already a TrainResult field
        extra["decode_steps"] = float(loop.decode_steps)
        extra["batch_cap"] = float(self.batch_cap)
        train = TrainResult(
            system_tag=self.engine.node.jube_tag,
            benchmark=f"llm-serve-{self.engine.model.name}",
            global_batch_size=self.batch_cap,
            devices=1,
            iterations=loop.decode_steps,
            elapsed_s=elapsed,
            throughput=summary.throughput_tokens_per_s,
            throughput_unit="tokens_per_s",
            energy_per_device_wh=energy_wh,
            mean_power_per_device_w=mean_power,
            extra=extra,
        )
        return ServeResult(
            train=train,
            summary=summary,
            records=records,
            rejected=loop.queue.rejected,
            alerts=(
                self.slo_monitor.to_dict() if self.slo_monitor is not None else None
            ),
        )

    def _observe(self, summary: ServeSummary, records) -> None:
        """Record the run's serving metrics on the process registry."""
        metrics = get_metrics()
        tag = self.engine.node.jube_tag
        metrics.counter(
            "serve_requests_completed_total", "requests served to completion"
        ).inc(summary.completed, system=tag)
        if summary.rejected:
            metrics.counter(
                "serve_requests_rejected_total", "requests shed at admission"
            ).inc(summary.rejected, system=tag)
        ttft = metrics.histogram("serve_ttft_s", "time to first token")
        e2e = metrics.histogram("serve_e2e_s", "end-to-end request latency")
        for record in records:
            ttft.observe(record.ttft_s, system=tag)
            e2e.observe(record.e2e_s, system=tag)

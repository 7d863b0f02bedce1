"""The single-engine serving event loop.

:class:`_ServeLoop` is the body
:class:`~repro.serve.simulator.ServingSimulator` runs under
``measure_run``.  Between decode steps it admits waiting requests (each
pays its prefill at the compute-bound utilisation point); every decode
step advances the whole batch by one token at the roofline step time of
the *current* batch size, and finished sequences are evicted.  Every
phase the loop runs happens at the time, with the duration and
utilisation, that stepping each sequence through each decode step
produces, so the jpwr sample frame, traces and telemetry equal that
per-step model byte for byte — while the per-step overheads that
dominate a million-request run are gone:

* **fused decode runs** — between two events that can change the batch
  every decode step has the same batch, duration and utilisation, so
  the steps up to the next completion go to one
  :meth:`~repro.engine.trainer.PhaseRunner.run_phases` call over a
  one-phase cycle, which appends the frame rows of *k* per-step phases
  in bulk.  With the
  batch below its cap, the queue empty and an arrival pending, a run
  ends at the first step boundary at or after that arrival, where
  per-step stepping would ingest it and may admit it.  A queue head
  that does not fit waits for a completion whatever arrives behind it,
  and those arrivals are offered in order at the run's end with the
  outcomes per-step offers give.  A run is one step long while the
  tracer, a telemetry sampler or a fault-injection scope is active:
  each acts between steps,
* **memoized phase times** — prefill times keyed by (prompt, generate)
  and decode-step times keyed by batch size are computed once per
  distinct key instead of once per phase,
* **heap-scheduled completions** — a min-heap of (completion step,
  admission order) replaces a per-step O(batch) scan for finished
  sequences; ``generated`` is set once, at completion,
* **compact attribution bookkeeping** — O(1) per step (bounds + batch
  size) instead of an O(batch) membership tuple, feeding the
  incremental energy cursor
  (:func:`repro.serve.soa.attribute_request_energy_wh`),
* **deferred gauge writes** — when neither a telemetry sampler nor the
  tracer observes the run, the queue-depth gauge is written once at the
  end (same final registry state) instead of at every iteration.

The per-step model itself is kept as a test-side differential oracle
(``tests/serve_oracle.py``); ``tests/serve/test_equivalence.py`` and the
Hypothesis fuzz suite assert every observable output equals it byte
for byte, traced and untraced.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterator

from repro.engine.inference import DECODE_UTILISATION_FRACTION, InferenceWorkload
from repro.engine.trainer import primary_energy_labels
from repro.errors import MeasurementError
from repro.faults.injector import get_injector
from repro.jpwr.energy import cumulative_energy_wh
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.serve.arrivals import Request
from repro.serve.constants import (
    ALERT_CLEARED_EVENT,
    ALERT_FIRED_EVENT,
    QUEUE_DEPTH_COUNTER,
    QUEUE_DEPTH_GAUGE,
    QUEUE_DEPTH_GAUGE_HELP,
    TELEMETRY_TRACK,
    TS_BATCH_OCCUPANCY,
    TS_KV_UTILISATION,
    TS_QUEUE_DEPTH,
    TS_TTFT_ROLLING_P95,
)
from repro.serve.queue import AdmissionQueue
from repro.serve.result import RequestRecord
from repro.serve.scheduler import ContinuousBatchScheduler, Sequence
from repro.serve.soa import attribute_request_energy_wh


def _steps_to_arrival(
    now: float, step_s: float, steps: int, arrival_s: float
) -> int:
    """Steps of a decode run from ``now`` that ends at the first step
    boundary at or after ``arrival_s``, at most ``steps``.

    Boundaries are the fold ``now += step_s`` the phase runner makes;
    per-step stepping ingests the arrival at that boundary and may
    admit it before the next step.
    """
    for taken in range(1, steps + 1):
        now += step_s
        if now >= arrival_s:
            return taken
    return steps


def _observe_completion(loop, seq, now: float) -> None:
    """Feed one completion to a loop's SLO monitor and rolling TTFT."""
    ttft_s = seq.first_token_s - seq.request.arrival_s
    if loop.monitor is not None:
        ok = loop.sim.slo.met_values(ttft_s, now - seq.request.arrival_s)
        _emit_alert_transitions(loop.monitor.observe(now, ok))
    if loop._ttft_window is not None:
        loop._ttft_window.observe(now, ttft_s)


def _emit_alert_transitions(transitions) -> None:
    """Mirror burn-rate alert fire/clear transitions onto the trace."""
    if not transitions:
        return
    tracer = get_tracer()
    if not tracer.enabled:
        return
    for kind, alert in transitions:
        tracer.event(
            ALERT_FIRED_EVENT if kind == "fired" else ALERT_CLEARED_EVENT,
            attrs={
                "rule": alert.rule,
                "burn_rate_short": round(alert.burn_rate_short, 4),
                "burn_rate_long": round(alert.burn_rate_long, 4),
            },
            track=TELEMETRY_TRACK,
        )


class _ServeLoop:
    """One single-engine run's mutable state; the body measure_run runs."""

    def __init__(self, sim, requests: tuple[Request, ...]) -> None:
        self.sim = sim
        self.pending = deque(requests)
        self.queue = AdmissionQueue(sim.queue_capacity)
        self.scheduler = ContinuousBatchScheduler(sim.engine, batch_cap=sim.batch_cap)
        self.finished: list[tuple[Sequence, float]] = []  # (sequence, completed_s)
        self.decode_steps = 0
        #: Request index -> attributed Wh (filled by :meth:`attribute_energy`).
        self.energy_wh: dict[int, float] = {}
        # Attribution bookkeeping, O(1) per decode step.
        self.prefill_events: list[tuple[int, float, float]] = []
        self.step_t0: list[float] = []
        self.step_t1: list[float] = []
        self.step_batch: list[int] = []
        self.spans: list[tuple[int, int, int]] = []
        self._first_step: dict[int, int] = {}
        self.sampler = sim.telemetry
        self.monitor = sim.slo_monitor
        self._ttft_window = None
        if self.sampler is not None:
            self.sampler.add_probe(TS_QUEUE_DEPTH, lambda t: float(len(self.queue)))
            self.sampler.add_probe(
                TS_BATCH_OCCUPANCY, lambda t: float(self.scheduler.batch_size)
            )
            self.sampler.add_probe(TS_KV_UTILISATION, self._kv_utilisation)
            self._ttft_window = self.sampler.add_rolling(TS_TTFT_ROLLING_P95)

    def _kv_utilisation(self, t_s: float) -> float:
        """Fraction of the KV budget currently reserved."""
        budget = self.scheduler.kv_budget_bytes
        return self.scheduler.kv_reserved_bytes / budget if budget else 0.0

    def _ingest(self, now: float) -> None:
        while self.pending and self.pending[0].arrival_s <= now:
            self.queue.offer(self.pending.popleft())

    def _gauge_queue(self, tag: str) -> None:
        get_metrics().gauge(QUEUE_DEPTH_GAUGE, QUEUE_DEPTH_GAUGE_HELP).set(
            len(self.queue), system=tag
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter(QUEUE_DEPTH_COUNTER, len(self.queue))

    def _tick(self, now: float) -> None:
        """Take any telemetry samples due at or before ``now``."""
        if self.sampler is not None:
            self.sampler.tick(now)

    def _complete(self, seq, now: float) -> None:
        """Book one finished sequence; feed SLO monitor and telemetry."""
        self.finished.append((seq, now))
        _observe_completion(self, seq, now)

    def run(self, runner, clock) -> None:
        """The scheduler loop: idle, admit+prefill, decode, evict."""
        sim = self.sim
        engine = sim.engine
        injector = get_injector()
        tag = engine.node.jube_tag
        util_prefill = engine.cal.util_full_llm
        util_decode = engine.cal.util_full_llm * DECODE_UTILISATION_FRACTION
        observed = self.sampler is not None or get_tracer().enabled
        stepwise = observed or injector.enabled
        scheduler = self.scheduler
        queue = self.queue
        pending = self.pending
        prefill_cache: dict[tuple[int, int], float] = {}
        decode_cache: dict[int, float] = {}
        # (completion step, admission order, sequence): a sequence
        # admitted with the step counter at s finishes when the counter
        # reaches s + generate_tokens; ties resolve in admission order,
        # the scheduler's in-batch eviction order.
        completions: list[tuple[int, int, object]] = []
        admitted = 0
        fresh: list = []  # admitted since the last decode step
        self._ingest(clock.now())
        if observed:
            self._gauge_queue(tag)
        self._tick(clock.now())
        while pending or len(queue) or scheduler.active:
            now = clock.now()
            if not scheduler.active and not len(queue):
                # Batch idle and nothing queued: sleep to the next
                # arrival, then force it in (guards against float
                # residue leaving `now` a hair before the arrival).
                nxt = pending[0]
                if nxt.arrival_s > now:
                    runner.idle(nxt.arrival_s - now)
                self._tick(clock.now())
                self._ingest(clock.now())
                if pending and pending[0] is nxt:
                    queue.offer(pending.popleft())
                if observed:
                    self._gauge_queue(tag)
                continue
            # Iteration boundary: admit whatever fits, paying prefill.
            while len(queue) and scheduler.fits(queue.peek()):
                request = queue.pop()
                seq = scheduler.admit(request, clock.now())
                key = (request.prompt_tokens, request.generate_tokens)
                t_prefill = prefill_cache.get(key)
                if t_prefill is None:
                    t_prefill = engine.prefill_time_s(
                        InferenceWorkload(
                            prompt_tokens=request.prompt_tokens,
                            generate_tokens=request.generate_tokens,
                            batch_size=1,
                        )
                    )
                    prefill_cache[key] = t_prefill
                factor = (
                    injector.straggler_factor(clock.now(), self.decode_steps)
                    if injector.enabled
                    else 1.0
                )
                t0 = clock.now()
                runner.run_phase(t_prefill * factor, util_prefill)
                self.prefill_events.append((request.index, t0, clock.now()))
                self._first_step[request.index] = self.decode_steps
                heapq.heappush(
                    completions,
                    (self.decode_steps + request.generate_tokens, admitted, seq),
                )
                admitted += 1
                fresh.append(seq)
                self._tick(clock.now())
            if observed:
                self._gauge_queue(tag)
            if not scheduler.active:
                continue
            # A decode run over the current batch: one step while the
            # run is observed or faults may fire between steps, else
            # every step until the batch can next change.
            now = clock.now()
            if injector.enabled:
                injector.check_step(now, self.decode_steps)
            factor = (
                injector.straggler_factor(now, self.decode_steps)
                if injector.enabled
                else 1.0
            )
            batch = len(scheduler.active)
            base = decode_cache.get(batch)
            if base is None:
                base = engine.decode_step_time_s(batch)
                decode_cache[batch] = base
            step_s = base * factor
            steps = 1
            if not stepwise:
                steps = completions[0][0] - self.decode_steps
                if batch < scheduler.batch_cap and not len(queue) and pending:
                    steps = _steps_to_arrival(
                        now, step_s, steps, pending[0].arrival_s
                    )
            bounds = runner.run_phases(((step_s, util_decode),), steps)
            self.decode_steps += steps
            t1 = bounds[-1]
            self.step_t0.extend(bounds[:-1])
            self.step_t1.extend(bounds[1:])
            self.step_batch.extend([batch] * steps)
            self._tick(t1)
            if fresh:
                # First decode step these sequences participate in:
                # their first token lands at its end.
                for seq in fresh:
                    seq.first_token_s = bounds[1]
                fresh.clear()
            if completions and completions[0][0] == self.decode_steps:
                while completions and completions[0][0] == self.decode_steps:
                    seq = heapq.heappop(completions)[2]
                    seq.generated = seq.request.generate_tokens
                for seq in scheduler.evict_done():
                    index = seq.request.index
                    self.spans.append(
                        (index, self._first_step.pop(index), self.decode_steps - 1)
                    )
                    self._complete(seq, t1)
            self._ingest(t1)
            if observed:
                self._gauge_queue(tag)
        if not observed:
            # The final registry state a write per iteration leaves.
            self._gauge_queue(tag)

    def attribute_energy(self, runner) -> None:
        """Attribute the measured energy to requests (:attr:`energy_wh`).

        A fault plan can leave the sample frame empty (full sensor
        dropout); attribution then reports 0.0 Wh per request rather
        than failing the run's latency results.
        """
        try:
            labels = primary_energy_labels(runner.scope.df.columns, runner.devices)
            times, cumulative = cumulative_energy_wh(runner.scope.df, labels)
        except MeasurementError:
            return
        self.energy_wh = attribute_request_energy_wh(
            times,
            cumulative,
            prefill_events=self.prefill_events,
            step_t0=self.step_t0,
            step_t1=self.step_t1,
            step_batch=self.step_batch,
            spans=self.spans,
        )

    def records(self) -> Iterator[RequestRecord]:
        """One record per completed request, in completion order."""
        for seq, completed_s in self.finished:
            request = seq.request
            yield RequestRecord(
                index=request.index,
                arrival_s=request.arrival_s,
                admitted_s=seq.admitted_s,
                first_token_s=seq.first_token_s,
                completed_s=completed_s,
                prompt_tokens=request.prompt_tokens,
                generate_tokens=request.generate_tokens,
                energy_wh=self.energy_wh.get(request.index, 0.0),
            )

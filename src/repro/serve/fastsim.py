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
* **scheduled, then measured once** — when none of those is active,
  nothing reads the measurement clock or the frame before the run
  ends, so the loop schedules the whole run against a
  :class:`_Recorder` and the phase runner replays the recording once
  (:meth:`~repro.engine.trainer.PhaseRunner.replay`), appending each
  segment of one utilisation in bulk,
* **memoized phase times** — prefill times keyed by prompt tokens
  (:class:`_PrefillTimes`, shared with the cluster loop) and
  decode-step times keyed by batch size are computed once per distinct
  key instead of once per phase,
* **heap-scheduled completions** — a min-heap of (completion step,
  admission order) replaces a per-step O(batch) scan for finished
  sequences, and the popped ones are evicted directly; ``generated``
  is set once, at completion,
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
from itertools import accumulate, repeat

from repro.engine.inference import DECODE_UTILISATION_FRACTION, InferenceWorkload
from repro.engine.trainer import primary_energy_labels
from repro.errors import MeasurementError
from repro.faults.injector import get_injector
from repro.jpwr.energy import cumulative_energy_wh
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.serve.arrivals import Request, shift_arrivals
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


class _PrefillTimes(dict):
    """One engine's prefill time per prompt length, computed on first use.

    :meth:`~repro.engine.inference.InferenceEngine.prefill_time_s`
    reads only batch size x prompt tokens, so the prompt tokens a
    prefill processes are the whole key; a request's generation length
    is no part of it.  Both serving loops index one per run.
    """

    def __init__(self, engine) -> None:
        super().__init__()
        self.engine = engine

    def __missing__(self, prompt_tokens: int) -> float:
        t = self[prompt_tokens] = self.engine.prefill_time_s(
            InferenceWorkload(prompt_tokens=prompt_tokens, batch_size=1)
        )
        return t


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


class _Recorder:
    """The phases of a run scheduled ahead of the measurement clock.

    Takes the loop's :class:`~repro.engine.trainer.PhaseRunner` calls
    (:meth:`run_phase`, :meth:`run_phases` over a one-phase cycle,
    :meth:`idle`) and stands in for its clock (:meth:`now`, the last
    boundary).  It records the phase boundaries, the left fold
    ``t += d`` those calls make from the same start, and one
    ``(utilisation, run)`` per segment, a run of consecutive phases of
    one utilisation; phases of non-positive duration run nothing.
    """

    def __init__(self, start_s: float) -> None:
        self.edges = [start_s]
        self.utilisations: list[float] = []
        self.runs: list[int] = []

    def now(self) -> float:
        """The scheduled time: the last phase boundary."""
        return self.edges[-1]

    def _segment(self, utilisation: float, count: int) -> None:
        if self.utilisations and self.utilisations[-1] == utilisation:
            self.runs[-1] += count
        else:
            self.utilisations.append(utilisation)
            self.runs.append(count)

    def run_phase(self, duration_s: float, utilisation: float) -> None:
        """One phase."""
        if duration_s > 0:
            self.edges.append(self.edges[-1] + duration_s)
            self._segment(utilisation, 1)

    def run_phases(
        self, cycle: tuple[tuple[float, float]], count: int
    ) -> list[float]:
        """``count`` phases of a one-phase cycle; returns their
        ``count + 1`` boundaries."""
        ((duration_s, utilisation),) = cycle
        bounds = list(
            accumulate(repeat(max(duration_s, 0.0), count), initial=self.edges[-1])
        )
        if duration_s > 0:
            self.edges += bounds[1:]
            self._segment(utilisation, count)
        return bounds

    def idle(self, duration_s: float) -> None:
        """An idle phase."""
        self.run_phase(duration_s, 0.0)


class _ServeLoop:
    """One single-engine run's mutable state; the body measure_run runs."""

    def __init__(self, sim, requests: tuple[Request, ...]) -> None:
        self.sim = sim
        self.clock = None  # the run's clock, set by begin()
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

    def begin(self, clock) -> None:
        """Serve the stream from ``clock``'s current time, the run's start.

        A run that starts mid-clock — every run after the first in a
        traced scope, whose runs share one clock — shifts its arrivals
        by the start and skips the telemetry boundaries before it.
        """
        self.clock = clock
        start = clock.now()
        if start:
            self.pending = deque(shift_arrivals(tuple(self.pending), start))
        if self.sampler is not None:
            self.sampler.align(start)

    def run(self, runner, clock) -> None:
        """The scheduler loop: idle, admit+prefill, decode, evict.

        A run nothing observes between steps — no tracer, telemetry
        sampler or fault-injection scope — is scheduled whole against a
        :class:`_Recorder` from the clock's current time, and
        ``runner`` replays the recording once at the end
        (:meth:`~repro.engine.trainer.PhaseRunner.replay`); ``clock``
        stays at the run's start until then.  Otherwise each phase runs
        on ``runner`` at the current clock.
        """
        observed = self.sampler is not None or get_tracer().enabled
        if observed or get_injector().enabled:
            self._schedule(runner, clock, observed, stepwise=True)
            return
        recorder = _Recorder(clock.now())
        self._schedule(recorder, recorder, observed=False, stepwise=False)
        runner.replay(recorder.edges, recorder.utilisations, recorder.runs)

    def _schedule(self, runner, clock, observed: bool, stepwise: bool) -> None:
        """The loop body: phases go to ``runner``, times come from ``clock``."""
        sim = self.sim
        engine = sim.engine
        injector = get_injector()
        tag = engine.node.jube_tag
        util_prefill = engine.cal.util_full_llm
        util_decode = engine.cal.util_full_llm * DECODE_UTILISATION_FRACTION
        scheduler = self.scheduler
        queue = self.queue
        waiting = queue.waiting
        pending = self.pending
        prefill_times = _PrefillTimes(engine)
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
        while pending or waiting or scheduler.active:
            now = clock.now()
            if not scheduler.active and not waiting:
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
            while waiting and scheduler.fits(waiting[0]):
                request = queue.pop()
                seq = scheduler.admit(request, clock.now())
                t_prefill = prefill_times[request.prompt_tokens]
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
                if batch < scheduler.batch_cap and not waiting and pending:
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
                # Popped in admission order, the order eviction
                # releases KV in.
                finished = []
                while completions and completions[0][0] == self.decode_steps:
                    seq = heapq.heappop(completions)[2]
                    seq.generated = seq.request.generate_tokens
                    finished.append(seq)
                scheduler.evict(finished)
                for seq in finished:
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

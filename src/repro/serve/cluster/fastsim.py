"""The cluster serving event loop: heap events and fused decode runs.

:class:`_ClusterLoop` is the event loop behind
:class:`~repro.serve.cluster.simulator.ClusterSimulator` and the path
that carries the million-request headline: stepping every decode step
of every replica as its own event, found by an O(sources) scan, costs
~90 loop iterations per request; this loop costs ~O(1) heap events per
request.

Two mechanisms, each provably output-preserving:

* **Heap-based event scheduling** (:class:`~repro.serve.events.EventHeap`):
  producers push candidate event times where they schedule them — a
  phase end when a prefill or run begins or a run is cut, a transfer
  completion when the transfer starts, spin-up readiness when an
  evaluation starts replicas, the arrival head and the next evaluation
  when they change — and the loop pops the earliest, running one *fixed
  handler order* per event, so same-time ties break deterministically;
  duplicate entries drain in one pop.  A cut always withdraws the end
  it supersedes, so each phase end is armed exactly once.
* **Fused decode runs**, under the single engine's run rule: a
  replica's batch changes only at its own completions and at
  admissions, which happen only when a free replica is dispatched, so
  the decode steps up to the batch's next completion form one
  scheduled run.  Each replica keeps the single engine's min-heap of
  (completion step, admission order) over its batch, which gives each
  run's length and its completions; ``generated`` is set once, at
  completion, and the sequences admitted since the replica's last run
  join the heap, and get their first token, when the next run begins.
  A run ends earlier only when a request is offered to that replica
  while its queue is empty and its batch is below the cap: it then
  ends at the first step boundary at or after the offer
  (:func:`repro.serve.fastsim._steps_to_arrival`), where per-step
  stepping would admit the request.  No other offer can change what
  per-step stepping admits before the run ends — a waiting queue head
  fits only after a completion frees KV, and a full batch admits
  nothing.  When the run ends, one scalar loop replays its step
  boundaries as the ``t += step_s`` chain per-step stepping makes, and
  folds the busy time, busy energy and per-member energy share of each
  step into the replica's counters in the same order.

The handler order lives in :meth:`_ClusterLoop.run`: one body over
locals makes, at each event, replica transitions, phase completions,
ingest, transfer completions, the autoscaler's evaluation, dispatch and
arming, and calls a handler only when it has work (ingest when the
arrival head is due, transfer completions while a transfer is in
flight).  A run's completions are popped from the replica's heap in
admission order and evicted directly
(:meth:`~repro.serve.scheduler.ContinuousBatchScheduler.evict`).  In
p2 mode each completion's record is folded into the run's
:class:`~repro.serve.result.StreamingSummarizer` when the request
completes, and the request's entries are dropped.

The loop keeps the current time itself.  Only a traced run's counters
and spans read the run's :class:`~repro.simcluster.clock.VirtualClock`
(a traced scope shares it), so the loop advances that clock at each
event only while the tracer is enabled, and otherwise once, to the last
event, when the run ends; the telemetry sampler, the SLO monitor and the
autoscaler take the time as an argument.  Prefill times are memoised by
the prompt tokens a prefill processes, the single engine's rule
(:class:`repro.serve.fastsim._PrefillTimes`).

Telemetry equivalence: samples are taken at heap events instead of at
every step boundary, but every probed quantity is piecewise-constant
between heap events (a fused run presents one synthetic busy phase
with the same utilisation), so each sample point reads the value
per-step stepping gives it.  The per-step loop is kept as a test-side
differential oracle (``tests/serve_oracle.py``) that subclasses
:class:`_ClusterLoop`, shares its handlers (``_ingest``,
``_transfer_completions``, ``_finish_prefill``, ``_next_action``,
``_complete``, ``_replica_transitions``, ``_work_remaining``,
``_observe_replicas``) and steps with its own; and
``tests/serve/test_equivalence.py`` asserts byte-identical outputs
across the full configuration grid.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from heapq import heappop, heappush

from repro.engine.inference import DECODE_UTILISATION_FRACTION
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.serve.arrivals import Request
from repro.serve.cluster.autoscaler import Autoscaler
from repro.serve.cluster.disagg import KVTransfer, transfer_energy_wh, transfer_time_s
from repro.serve.cluster.replica import JOULES_PER_WH, Replica, ReplicaRole, ReplicaState
from repro.serve.cluster.result import ClusterRecord
from repro.serve.cluster.router import _least_loaded
from repro.serve.constants import (
    CLUSTER_QUEUE_DEPTH_COUNTER,
    CLUSTER_REPLICAS_COUNTER,
    CLUSTER_REPLICAS_GAUGE,
    CLUSTER_REPLICAS_GAUGE_HELP,
    CLUSTER_TRACK,
    TS_BATCH_OCCUPANCY,
    TS_KV_UTILISATION,
    TS_POWER_WATTS,
    TS_QUEUE_DEPTH,
    TS_REPLICAS_ON,
    TS_TTFT_ROLLING_P95,
)
from repro.serve.events import EventHeap, stalled
from repro.serve.fastsim import (
    _observe_completion,
    _PrefillTimes,
    _steps_to_arrival,
)
from repro.serve.result import (
    _FOLD_CHUNK,
    PERCENTILE_MODE_EXACT,
    PERCENTILE_MODE_SKETCH,
    RequestRecord,
    ServeSummary,
    StreamingSummarizer,
    summarize_completions,
)

#: Phase kind of a prefill.
_PREFILL = "prefill"

#: Phase kind marking a fused multi-step decode run.
_FUSED_DECODE = "decode-run"


class _ClusterLoop:
    """One cluster run's mutable state and event loop."""

    def __init__(self, sim, requests: tuple[Request, ...], clock) -> None:
        self.sim = sim
        self.clock = clock
        self.start_s = clock.now()
        self.pending = deque(requests)
        self.transfers: list[KVTransfer] = []
        self.router = sim.make_router()
        self.replicas = sim.make_replicas(self.start_s)
        self.autoscaler = (
            Autoscaler(sim.autoscale, self.replicas, start_s=self.start_s)
            if sim.autoscale is not None
            else None
        )
        self.util_prefill = sim.engine.cal.util_full_llm
        self.util_decode = self.util_prefill * DECODE_UTILISATION_FRACTION
        # Per-request routing/energy bookkeeping (by request index).
        self.admitted_at: dict[int, float] = {}
        self.prefill_replica: dict[int, int] = {}
        self.decode_replica: dict[int, int] = {}
        self.prefix_hit: dict[int, bool] = {}
        self.transfer_s: dict[int, float] = {}
        self.energy_wh: dict[int, float] = {}
        # Incremental-attribution state: a request's prefill energy,
        # and its decode-replica cursor snapshot taken at admission.
        self.prefill_wh: dict[int, float] = {}
        self.cursor_snap: dict[int, float] = {}
        self.finished: list[tuple[object, float]] = []  # (sequence, completed_s)
        self.transfer_energy_total_wh = 0.0
        self.transfer_s_total = 0.0
        self.transfer_count = 0
        self.events = EventHeap()
        #: Whether the tracer records this run: its counters and spans
        #: read the clock, which the loop then advances at every event.
        self.traced = get_tracer().enabled
        #: The replicas the router chooses among (the prefill pool if
        #: split) and the decode pool KV handoffs go to.
        self.route_pool = (
            self.replicas
            if sim.disaggregation is None
            else [r for r in self.replicas if r.role is ReplicaRole.PREFILL]
        )
        self.decode_pool = [r for r in self.replicas if r.role is ReplicaRole.DECODE]
        self._prefill_times = _PrefillTimes(sim.engine)
        self._decode_cache: dict[int, float] = {}
        #: (steps, step time, batch) of each in-flight fused run, by
        #: replica index.
        self._runs: dict[int, tuple[int, float, int]] = {}
        #: Per replica, a min-heap of (completion step, admission order,
        #: sequence) over its batch: a sequence that joins at decode
        #: step s finishes at s + generate_tokens, and ties resolve in
        #: admission order, the scheduler's eviction order.
        self._completions: list[list[tuple[int, int, object]]] = [
            [] for _ in self.replicas
        ]
        self._joined = 0  # sequences pushed on any completion heap
        self._decode_power = self.replicas[0].power_model.power(self.util_decode)
        # Last armed ready time per replica, to avoid duplicate pushes.
        self._armed_ready: list[float | None] = [None] * len(self.replicas)
        #: A p2 run's summary, fed each record at completion, in
        #: completion order and chunks of ``_FOLD_CHUNK`` records
        #: (``_chunk``); None in exact mode, which keeps every
        #: completion for :meth:`records`.
        self.streamer = (
            StreamingSummarizer(slo=sim.slo)
            if sim.percentile_mode == PERCENTILE_MODE_SKETCH
            else None
        )
        self._chunk: list[RequestRecord] = []
        self.sampler = sim.telemetry
        self.monitor = sim.slo_monitor
        self._ttft_window = None
        if self.sampler is not None:
            self.sampler.align(self.start_s)
            for replica in self.replicas:
                labels = {"replica": str(replica.index)}
                self.sampler.add_probe(
                    TS_QUEUE_DEPTH,
                    lambda t, r=replica: float(len(r.queue)),
                    labels=labels,
                )
                self.sampler.add_probe(
                    TS_BATCH_OCCUPANCY,
                    lambda t, r=replica: float(r.scheduler.batch_size),
                    labels=labels,
                )
                self.sampler.add_probe(
                    TS_KV_UTILISATION,
                    lambda t, r=replica: (
                        r.scheduler.kv_reserved_bytes / r.scheduler.kv_budget_bytes
                        if r.scheduler.kv_budget_bytes
                        else 0.0
                    ),
                    labels=labels,
                )
                self.sampler.add_probe(
                    TS_POWER_WATTS, replica.current_watts, labels=labels
                )
            self.sampler.add_probe(TS_REPLICAS_ON, self._replicas_on)
            self._ttft_window = self.sampler.add_rolling(TS_TTFT_ROLLING_P95)

    def _replicas_on(self, t_s: float) -> float:
        """Fleet-level probe: powered-on replica count."""
        return float(
            sum(1 for r in self.replicas if r.state is not ReplicaState.STOPPED)
        )

    def _complete(self, seq, now: float, replica: Replica) -> None:
        """Book one finished sequence: energy, record, SLO monitor, telemetry.

        The request is charged its prefill plus the difference of its
        decode replica's share cursor since admission.  An exact-mode
        run keeps the completion for :meth:`records`; a p2 run folds
        its record into :attr:`streamer` and drops the request's
        entries, so it holds nothing per completed request.
        """
        replica.completed += 1
        index = seq.request.index
        energy_wh = self.prefill_wh.pop(index, 0.0) + (
            replica.decode_cursor_wh - self.cursor_snap.pop(index)
        )
        if self.streamer is None:
            self.energy_wh[index] = energy_wh
            self.finished.append((seq, now))
        else:
            chunk = self._chunk
            chunk.append(_record(seq, self.admitted_at.pop(index), now, energy_wh))
            if len(chunk) == _FOLD_CHUNK:
                self.streamer.observe_records(chunk)
                chunk.clear()
            for entries in (
                self.prefill_replica,
                self.decode_replica,
                self.prefix_hit,
                self.transfer_s,
            ):
                entries.pop(index, None)
        if self.monitor is not None or self._ttft_window is not None:
            _observe_completion(self, seq, now)

    # -- observability -------------------------------------------------------

    def _observe_depth(self) -> None:
        """Trace the fleet's queue depth; callers check :attr:`traced`."""
        waiting = sum(len(r.queue) for r in self.replicas)
        get_tracer().counter(CLUSTER_QUEUE_DEPTH_COUNTER, waiting)

    def _observe_replicas(self) -> None:
        on = sum(
            1 for r in self.replicas if r.state is not ReplicaState.STOPPED
        )
        get_metrics().gauge(
            CLUSTER_REPLICAS_GAUGE, CLUSTER_REPLICAS_GAUGE_HELP
        ).set(on, system=self.sim.engine.node.jube_tag)
        if self.traced:
            get_tracer().counter(CLUSTER_REPLICAS_COUNTER, on)

    # -- event arming --------------------------------------------------------

    def _arm_spinups(self) -> None:
        """Push the ready time of each replica an evaluation spun up."""
        for replica in self.replicas:
            if (
                replica.state is ReplicaState.STARTING
                and replica.ready_at_s != self._armed_ready[replica.index]
            ):
                self.events.push(replica.ready_at_s)
                self._armed_ready[replica.index] = replica.ready_at_s

    # -- event loop ----------------------------------------------------------

    def _work_remaining(self) -> bool:
        return bool(
            self.pending
            or self.transfers
            or any(
                r.queue.waiting or r.scheduler.active or r.busy_until_s is not None
                for r in self.replicas
            )
        )

    def _only_evaluations_left(self, now: float) -> bool:
        """Whether nothing but autoscaler evaluations can move the work.

        No arrival is pending, no transfer is in flight, no replica is
        busy and none is starting with its ready time ahead or due.
        Queued work never moves to another replica, so a replica an
        evaluation starts then could take none of it.
        """
        return not (
            self.pending
            or self.transfers
            or any(
                r.busy_until_s is not None
                or (r.state is ReplicaState.STARTING and r.ready_at_s >= now)
                for r in self.replicas
            )
        )

    def run(self) -> None:
        """Drive the cluster until every admitted request drains.

        Each event runs one fixed handler order, in this one body over
        locals: replica transitions (with an autoscaler), phase
        completions, ingest (when the arrival head is due), transfer
        completions (while a transfer is in flight), the autoscaler's
        evaluation, dispatch, and the arming of the arrival head and of
        the next evaluation.  The run's start is the same pass without
        the event: ingest, dispatch, the first telemetry sample, arming.

        The loop keeps the current time itself.  A traced run advances
        the clock to each event, since its counters and spans read it;
        otherwise nothing reads the clock before the run ends, and it is
        advanced once, to the last event.
        """
        self._observe_replicas()
        clock = self.clock
        traced = self.traced
        sampler = self.sampler
        autoscaler = self.autoscaler
        replicas = self.replicas
        pending = self.pending
        events = self.events
        push = events.push
        pop_due = events.pop_due
        ingest = self._ingest
        next_action = self._next_action
        finish_run = self._finish_run
        finish_prefill = self._finish_prefill
        running = ReplicaState.RUNNING
        armed_arrival = armed_eval = None
        now = clock.now()
        if pending and pending[0].arrival_s <= now:
            ingest(now)
        start = True
        while True:
            # Dispatch: a free running replica with work begins its next
            # phase, whose end is armed here, once.  One with an empty
            # queue and batch is skipped: ``_next_action`` does nothing
            # for it in any role.
            for replica in replicas:
                if (
                    replica.busy_until_s is None
                    and replica.state is running
                    and (replica.queue.waiting or replica.scheduler.active)
                ):
                    next_action(replica, now)
                    if replica.busy_until_s is not None:
                        push(replica.busy_until_s)
            if start:  # the run's first sample sees t0's dispatch
                start = False
                if sampler is not None:
                    sampler.tick(now)
            # Arm the arrival head and the next evaluation if new; phase
            # ends, transfer completions and spin-up readiness are armed
            # where they are scheduled.
            if pending:
                t = pending[0].arrival_s
                if t != armed_arrival:
                    events.push_at_or_after(t, now)
                    armed_arrival = t
            if autoscaler is not None and autoscaler.next_eval_s != armed_eval:
                armed_eval = autoscaler.next_eval_s
                push(armed_eval)
            if not self._work_remaining():
                break
            if autoscaler is not None and self._only_evaluations_left(now):
                # Evaluations alone would re-arm each other for ever.
                raise stalled()
            target = pop_due()
            if target > now:
                now = target
                if traced:
                    clock.advance_to(now)
            # Sample boundaries crossed by the advance see the
            # piecewise-constant state of the interval just ended.
            if sampler is not None:
                sampler.tick(now)
            if autoscaler is not None:  # the only one to start replicas
                self._replica_transitions(now)
            # Phase completions: every fused run and prefill due by now.
            for replica in replicas:
                busy_until = replica.busy_until_s
                if busy_until is not None and busy_until <= now:
                    if replica.phase[3] == _FUSED_DECODE:
                        finish_run(replica)
                    else:
                        finish_prefill(replica)
            if pending and pending[0].arrival_s <= now:
                ingest(now)
            if self.transfers:
                self._transfer_completions(now)
            if autoscaler is not None and autoscaler.due(now):
                started, stopped = autoscaler.evaluate(now)
                if started or stopped:
                    self._observe_replicas()
                if started:
                    self._arm_spinups()
        if not traced:
            clock.advance_to(now)
        # Close every powered-on replica's idle accounting at end of run.
        for replica in replicas:
            replica.account_to(max(now, replica.ready_at_s))

    def _ingest(self, now: float) -> None:
        """Route every arrival due by ``now`` to its replica."""
        pending = self.pending
        route = self.router.route
        pool = self.route_pool
        routed = False
        while pending and pending[0].arrival_s <= now:
            request = pending.popleft()
            self._offer(route(request, pool), request, now)
            routed = True
        if routed and self.traced:
            self._observe_depth()

    def _replica_transitions(self, now: float) -> None:
        for replica in self.replicas:
            if (
                replica.state is ReplicaState.STARTING
                and replica.ready_at_s <= now
            ):
                replica.set_running(now)

    def _finish_prefill(self, replica: Replica) -> None:
        """Book a finished prefill's energy; hand off its KV if split."""
        t0, t1, util, _, members = replica.finish_phase()
        self.prefill_wh[members[0]] = replica.phase_energy_wh(util, t1 - t0)
        if replica.role is ReplicaRole.PREFILL:
            self._start_transfer(members[0], replica, t1)

    def _start_transfer(self, index: int, source: Replica, now: float) -> None:
        """Hand a prefilled request's KV state to the decode pool."""
        request = source.handoff.pop(index)
        kv_bytes = (
            request.prompt_tokens * self.sim.engine.model.kv_cache_bytes_per_token()
        )
        link = self.sim.link
        duration = transfer_time_s(kv_bytes, link)
        energy = transfer_energy_wh(kv_bytes)
        target = _least_loaded(self.decode_pool)
        self.transfers.append(
            KVTransfer(
                request=request,
                source=source.index,
                target=target.index,
                kv_bytes=kv_bytes,
                started_s=now,
                done_at_s=now + duration,
                energy_wh=energy,
            )
        )
        self.events.push(now + duration)
        self.transfer_s[index] = duration
        self.transfer_energy_total_wh += energy
        self.transfer_s_total += duration
        self.transfer_count += 1

    def _transfer_completions(self, now: float) -> None:
        done = [tr for tr in self.transfers if tr.done_at_s <= now]
        if not done:
            return
        self.transfers = [tr for tr in self.transfers if tr.done_at_s > now]
        for tr in sorted(done, key=lambda t: (t.done_at_s, t.request.index)):
            target = self.replicas[tr.target]
            request = tr.request
            self.decode_replica[request.index] = tr.target
            # ``offer`` records the shed in the decode replica's queue
            # when full, so conservation (completed + rejected ==
            # offered) holds without a second ledger here.
            self._offer(target, request, now)

    def _offer(self, replica: Replica, request: Request, now: float) -> None:
        """Queue ``request`` at ``replica``; cut a fused run it could join.

        Only a request accepted into an empty queue, with a free batch
        slot, is one per-step stepping may admit before the run ends.
        """
        queue = replica.queue
        was_empty = not queue.waiting
        if (
            queue.offer(request)
            and was_empty
            and replica.index in self._runs
            and len(replica.scheduler.active) < replica.scheduler.batch_cap
        ):
            self._cut_run(replica, now)

    def _next_action(self, replica: Replica, now: float) -> None:
        """Give one free running replica its next phase, if any."""
        role = replica.role
        queue = replica.queue
        waiting = queue.waiting
        scheduler = replica.scheduler
        if role is ReplicaRole.DECODE:
            # Admission is free (prefill already paid); batch everything
            # that fits, then run decode.
            while waiting and scheduler.fits(waiting[0]):
                request = queue.pop()
                scheduler.admit(request, now)
                self.cursor_snap[request.index] = replica.decode_cursor_wh
            if scheduler.active:
                self._begin_decode(replica, now)
            return
        if waiting and (role is ReplicaRole.PREFILL or scheduler.fits(waiting[0])):
            request = queue.pop()
            index = request.index
            self.admitted_at.setdefault(index, now)
            self.prefill_replica[index] = replica.index
            hit = replica.note_prefill(request.session)
            replica.prefills += 1
            if hit:
                replica.prefix_hits += 1
            self.prefix_hit[index] = hit
            tokens = request.prompt_tokens
            if hit and request.prefix_tokens > 0:
                tokens = max(1, tokens - request.prefix_tokens)
            t_prefill = self._prefill_times[tokens]
            if role is ReplicaRole.UNIFIED:
                scheduler.admit(request, now)
                self.cursor_snap[index] = replica.decode_cursor_wh
                self.decode_replica[index] = replica.index
            else:
                replica.handoff[index] = request
            replica.begin_phase(now, t_prefill, self.util_prefill, _PREFILL, (index,))
            if self.traced:
                self._observe_depth()
            return
        if role is ReplicaRole.UNIFIED and scheduler.active:
            self._begin_decode(replica, now)

    # -- fused decode runs ---------------------------------------------------

    def _begin_decode(self, replica: Replica, now: float) -> None:
        """Schedule one fused decode run to the batch's next completion.

        The batch is the heap's members, in admission order, followed
        by the sequences admitted since the replica's last run: they
        join the heap here, and their first token lands at the end of
        this run's first step.
        """
        active = replica.scheduler.active
        batch = len(active)
        step_s = self._decode_cache.get(batch)
        if step_s is None:
            step_s = self.sim.engine.decode_step_time_s(batch)
            self._decode_cache[batch] = step_s
        completions = self._completions[replica.index]
        step = replica.decode_steps
        first_t = now + step_s
        for seq in active[len(completions):]:
            heappush(
                completions, (step + seq.request.generate_tokens, self._joined, seq)
            )
            self._joined += 1
            seq.first_token_s = first_t
        steps = completions[0][0] - step
        replica.account_to(now)
        t_end = _run_end(now, step_s, steps)
        replica.busy_until_s = t_end
        replica.phase = (now, t_end, self.util_decode, _FUSED_DECODE, ())
        self._runs[replica.index] = (steps, step_s, batch)

    def _cut_run(self, replica: Replica, now: float) -> None:
        """End the replica's run at the first step boundary at or after ``now``.

        A boundary at ``now`` itself is where per-step stepping has
        just finished a step, so the run finishes here, before
        dispatch admits the request.  The run's old end is
        withdrawn, and a cut end after ``now`` is armed in its place.
        """
        steps, step_s, batch = self._runs[replica.index]
        t0, t_end = replica.phase[0], replica.phase[1]
        taken = _steps_to_arrival(t0, step_s, steps, now)
        if taken == steps:
            return
        self.events.cancel(t_end)  # the superseded end
        t_cut = _run_end(t0, step_s, taken)
        replica.busy_until_s = t_cut
        replica.phase = (t0, t_cut, self.util_decode, _FUSED_DECODE, ())
        self._runs[replica.index] = (taken, step_s, batch)
        if t_cut == now:
            self._finish_run(replica)
        else:
            self.events.push(t_cut)

    def _finish_run(self, replica: Replica) -> None:
        """Close one fused run: fold its steps, then pop its completions."""
        t0, t1 = replica.phase[0], replica.phase[1]
        steps, step_s, batch = self._runs.pop(replica.index)
        power = self._decode_power
        busy_s = replica.busy_s
        busy_j = replica.busy_energy_j
        cursor = replica.decode_cursor_wh
        t = t0
        for _ in range(steps):
            t_next = t + step_s
            dt = t_next - t
            energy_j = power * dt
            busy_s += dt
            busy_j += energy_j
            cursor += (energy_j / JOULES_PER_WH) / batch
            t = t_next
        replica.busy_s = busy_s
        replica.busy_energy_j = busy_j
        replica.decode_cursor_wh = cursor
        replica.decode_steps = step = replica.decode_steps + steps
        replica.last_active_s = t1
        replica._accounted_until_s = t1  # the fold closed the gap
        replica.busy_until_s = None
        replica.phase = None
        completions = self._completions[replica.index]
        if completions[0][0] != step:
            return  # a cut run completes nothing
        # Popped in admission order, the order eviction releases KV in.
        finished = []
        while completions and completions[0][0] == step:
            seq = heappop(completions)[2]
            seq.generated = seq.request.generate_tokens
            finished.append(seq)
        replica.scheduler.evict(finished)
        for seq in finished:
            self._complete(seq, t1, replica)

    # -- results -------------------------------------------------------------

    def rejected(self) -> tuple[Request, ...]:
        """Every shed request (queue overflow at either pool)."""
        shed: list[Request] = []
        for replica in self.replicas:
            shed.extend(replica.queue.rejected)
        return tuple(sorted(shed, key=lambda r: r.index))

    def records(self) -> Iterator[RequestRecord]:
        """One record per completed request, in completion order.

        Exact mode only: a p2 run folds its records at completion.
        """
        for seq, completed_s in self.finished:
            index = seq.request.index
            yield _record(
                seq, self.admitted_at[index], completed_s, self.energy_wh[index]
            )

    def summary(
        self, *, offered: int, rejected: int, elapsed_s: float
    ) -> tuple[ServeSummary, tuple | None]:
        """The run's serving summary, and the routed records it keeps.

        Exact mode summarises :meth:`records` through
        :func:`~repro.serve.result.summarize_completions`; a p2 run
        folds its last partial chunk and keeps no records.
        """
        streamer = self.streamer
        if streamer is None:
            return summarize_completions(
                self.records(),
                percentile_mode=PERCENTILE_MODE_EXACT,
                slo=self.sim.slo,
                offered=offered,
                rejected=rejected,
                elapsed_s=elapsed_s,
                keep=self.routed_record,
            )
        streamer.observe_records(self._chunk)
        self._chunk.clear()
        summary = streamer.summary(
            offered=offered, rejected=rejected, elapsed_s=elapsed_s
        )
        return summary, None

    def routed_record(self, record: RequestRecord) -> ClusterRecord:
        """``record`` with its routing detail, traced as a request span."""
        index = record.index
        routed = ClusterRecord(
            record=record,
            prefill_replica=self.prefill_replica[index],
            decode_replica=self.decode_replica[index],
            prefix_hit=self.prefix_hit.get(index, False),
            transfer_s=self.transfer_s.get(index, 0.0),
        )
        if self.traced:
            get_tracer().complete_span(
                "cluster/request",
                record.arrival_s,
                record.completed_s,
                attrs={
                    "index": index,
                    "replica": routed.decode_replica,
                    "ttft_s": round(record.ttft_s, 6),
                    "prefix_hit": routed.prefix_hit,
                },
                track=CLUSTER_TRACK,
            )
        return routed


def _record(
    seq, admitted_s: float, completed_s: float, energy_wh: float
) -> RequestRecord:
    """The record of one completed sequence."""
    request = seq.request
    return RequestRecord(
        index=request.index,
        arrival_s=request.arrival_s,
        admitted_s=admitted_s,
        first_token_s=seq.first_token_s,
        completed_s=completed_s,
        prompt_tokens=request.prompt_tokens,
        generate_tokens=request.generate_tokens,
        energy_wh=energy_wh,
    )


def _run_end(t: float, step_s: float, steps: int) -> float:
    """The last boundary of a run of ``steps`` steps from ``t``.

    The same fold ``t += step_s`` the run's boundaries are made of.
    """
    for _ in range(steps):
        t += step_s
    return t

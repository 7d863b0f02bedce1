"""The cluster serving event loop: heap events and fused decode runs.

:class:`_ClusterLoop` is the event loop behind
:class:`~repro.serve.cluster.simulator.ClusterSimulator` and the path
that carries the million-request headline: stepping every decode step
of every replica as its own event, found by an O(sources) scan, costs
~90 loop iterations per request; this loop costs ~O(1) heap events per
request.

Two mechanisms, each provably output-preserving:

* **Heap-based event scheduling** (:class:`~repro.serve.events.EventHeap`):
  producers push candidate event times (phase ends, arrivals, transfer
  completions, autoscaler evaluations, spin-up readiness) and the loop
  pops the earliest, running one *fixed handler order* per event — so
  same-time ties break deterministically; duplicate entries drain in
  one pop, and an end time a cut supersedes is withdrawn.
* **Fused decode runs**, under the single engine's run rule: a
  replica's batch changes only at its own completions and at
  admissions, which happen only in ``_dispatch`` on a free replica, so
  the decode steps up to the batch's next completion form one
  scheduled run.  A run ends earlier only when a request is offered to
  that replica while its queue is empty and its batch is below the
  cap: it then ends at the first step boundary at or after the offer
  (:func:`repro.serve.fastsim._steps_to_arrival`), where per-step
  stepping would admit the request.  No other offer can change what
  per-step stepping admits before the run ends — a waiting queue head
  fits only after a completion frees KV, and a full batch admits
  nothing.  When the run ends, one scalar loop replays its step
  boundaries as the ``t += step_s`` chain per-step stepping makes, and
  folds the busy time, busy energy and per-member energy share of each
  step into the replica's counters in the same order.

Telemetry equivalence: samples are taken at heap events instead of at
every step boundary, but every probed quantity is piecewise-constant
between heap events (a fused run presents one synthetic busy phase
with the same utilisation), so each sample point reads the value
per-step stepping gives it.  The per-step loop is kept as a test-side
differential oracle (``tests/serve_oracle.py``), and
``tests/serve/test_equivalence.py`` asserts byte-identical outputs
across the full configuration grid.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.engine.inference import DECODE_UTILISATION_FRACTION, InferenceWorkload
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.serve.arrivals import Request
from repro.serve.cluster.autoscaler import Autoscaler
from repro.serve.cluster.disagg import KVTransfer, transfer_energy_wh, transfer_time_s
from repro.serve.cluster.replica import JOULES_PER_WH, Replica, ReplicaRole, ReplicaState
from repro.serve.cluster.result import ClusterRecord
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
from repro.serve.fastsim import _observe_completion, _steps_to_arrival
from repro.serve.result import RequestRecord

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
        self._decode_cache: dict[int, float] = {}
        #: (steps, step time, batch) of each in-flight fused run, by
        #: replica index.
        self._runs: dict[int, tuple[int, float, int]] = {}
        self._decode_power = self.replicas[0].power_model.power(self.util_decode)
        # Last armed time per event source, to avoid duplicate pushes.
        self._armed_arrival: float | None = None
        self._armed_eval: float | None = None
        self._armed_busy: list[float | None] = [None] * len(self.replicas)
        self._armed_ready: list[float | None] = [None] * len(self.replicas)
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
        """Book one finished sequence: energy, SLO monitor, telemetry.

        The request is charged its prefill plus the difference of its
        decode replica's share cursor since admission.
        """
        replica.completed += 1
        index = seq.request.index
        self.energy_wh[index] = self.prefill_wh.pop(index, 0.0) + (
            replica.decode_cursor_wh - self.cursor_snap.pop(index)
        )
        self.finished.append((seq, now))
        _observe_completion(self, seq, now)

    # -- routing pools -------------------------------------------------------

    def _route_pool(self) -> list[Replica]:
        """Replicas the router chooses among (prefill pool if split)."""
        if self.sim.disaggregation is None:
            return self.replicas
        return [r for r in self.replicas if r.role is ReplicaRole.PREFILL]

    def _decode_pool(self) -> list[Replica]:
        return [r for r in self.replicas if r.role is ReplicaRole.DECODE]

    # -- observability -------------------------------------------------------

    def _observe_depth(self) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            waiting = sum(len(r.queue) for r in self.replicas)
            tracer.counter(CLUSTER_QUEUE_DEPTH_COUNTER, waiting)

    def _observe_replicas(self) -> None:
        on = sum(
            1 for r in self.replicas if r.state is not ReplicaState.STOPPED
        )
        get_metrics().gauge(
            CLUSTER_REPLICAS_GAUGE, CLUSTER_REPLICAS_GAUGE_HELP
        ).set(on, system=self.sim.engine.node.jube_tag)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter(CLUSTER_REPLICAS_COUNTER, on)

    # -- event arming --------------------------------------------------------

    def _arm(self, now: float) -> None:
        """Push every pending event source's next time (if it changed)."""
        events = self.events
        if self.pending:
            t = self.pending[0].arrival_s
            if t != self._armed_arrival:
                events.push_at_or_after(t, now)
                self._armed_arrival = t
        # Only the autoscaler spins replicas up: without one no replica
        # is ever STARTING.
        autoscaling = self.autoscaler is not None
        for replica in self.replicas:
            busy = replica.busy_until_s
            if busy is not None and busy != self._armed_busy[replica.index]:
                events.push(busy)
                self._armed_busy[replica.index] = busy
            if (
                autoscaling
                and replica.state is ReplicaState.STARTING
                and replica.ready_at_s != self._armed_ready[replica.index]
            ):
                events.push(replica.ready_at_s)
                self._armed_ready[replica.index] = replica.ready_at_s
        if autoscaling and self.autoscaler.next_eval_s != self._armed_eval:
            events.push(self.autoscaler.next_eval_s)
            self._armed_eval = self.autoscaler.next_eval_s

    # -- event loop ----------------------------------------------------------

    def _work_remaining(self) -> bool:
        return bool(
            self.pending
            or self.transfers
            or any(
                len(r.queue) or r.scheduler.active or r.busy_until_s is not None
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
        """Drive the cluster until every admitted request drains."""
        self._observe_replicas()
        # Route anything already due at t0, then iterate events.
        now = self.clock.now()
        self._ingest(now)
        self._dispatch(now)
        if self.sampler is not None:
            self.sampler.tick(now)
        self._arm(now)
        while self._work_remaining():
            if self.autoscaler is not None and self._only_evaluations_left(now):
                # Evaluations alone would re-arm each other for ever.
                raise stalled()
            target = self.events.pop_due()
            now = self.clock.now()
            if target > now:
                self.clock.advance_to(target)
                now = target
            # Sample boundaries crossed by the advance see the
            # piecewise-constant state of the interval just ended.
            if self.sampler is not None:
                self.sampler.tick(now)
            if self.autoscaler is not None:  # the only one to start replicas
                self._replica_transitions(now)
            self._phase_completions(now)
            self._ingest(now)
            self._transfer_completions(now)
            if self.autoscaler is not None and self.autoscaler.due(now):
                started, stopped = self.autoscaler.evaluate(now)
                if started or stopped:
                    self._observe_replicas()
            self._dispatch(now)
            self._arm(now)
        # Close every powered-on replica's idle accounting at end of run.
        end = self.clock.now()
        for replica in self.replicas:
            replica.account_to(max(end, replica.ready_at_s))

    def _ingest(self, now: float) -> None:
        routed = False
        while self.pending and self.pending[0].arrival_s <= now:
            request = self.pending.popleft()
            target = self.router.route(request, self._route_pool())
            self._offer(target, request, now)
            routed = True
        if routed:
            self._observe_depth()

    def _replica_transitions(self, now: float) -> None:
        for replica in self.replicas:
            if (
                replica.state is ReplicaState.STARTING
                and replica.ready_at_s <= now
            ):
                replica.set_running(now)

    def _phase_completions(self, now: float) -> None:
        """Finish every phase due by ``now``: fused runs and prefills."""
        for replica in self.replicas:
            if replica.busy_until_s is None or replica.busy_until_s > now:
                continue
            if replica.phase[3] == _FUSED_DECODE:
                self._finish_run(replica)
            else:
                self._finish_prefill(replica)

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
        decode_pool = self._decode_pool()
        target = min(decode_pool, key=lambda r: (r.load, r.index))
        self.transfers.append(
            KVTransfer(
                request_index=index,
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
        for tr in sorted(done, key=lambda t: (t.done_at_s, t.request_index)):
            target = self.replicas[tr.target]
            request = self.sim.requests_by_index[tr.request_index]
            self.decode_replica[tr.request_index] = tr.target
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
        was_empty = not len(queue)
        if (
            queue.offer(request)
            and was_empty
            and replica.index in self._runs
            and replica.scheduler.batch_size < replica.scheduler.batch_cap
        ):
            self._cut_run(replica, now)

    def _dispatch(self, now: float) -> None:
        """Give every free running replica with work its next action.

        A replica with an empty queue and an empty batch is skipped:
        :meth:`_next_action` does nothing for it in any role.
        """
        for replica in self.replicas:
            if (
                replica.busy_until_s is not None
                or replica.state is not ReplicaState.RUNNING
                or not (len(replica.queue) or replica.scheduler.active)
            ):
                continue
            self._next_action(replica, now)

    def _next_action(self, replica: Replica, now: float) -> None:
        """Give one free running replica its next phase, if any."""
        role = replica.role
        if role is ReplicaRole.DECODE:
            # Admission is free (prefill already paid); batch everything
            # that fits, then run decode.
            while len(replica.queue) and replica.scheduler.fits(
                replica.queue.peek()
            ):
                request = replica.queue.pop()
                replica.scheduler.admit(request, now)
                self.cursor_snap[request.index] = replica.decode_cursor_wh
            if replica.scheduler.active:
                self._begin_decode(replica, now)
            return
        if len(replica.queue) and (
            role is ReplicaRole.PREFILL
            or replica.scheduler.fits(replica.queue.peek())
        ):
            request = replica.queue.pop()
            self.admitted_at.setdefault(request.index, now)
            self.prefill_replica[request.index] = replica.index
            hit = replica.note_prefill(request.session)
            replica.prefills += 1
            if hit:
                replica.prefix_hits += 1
            self.prefix_hit[request.index] = hit
            tokens = request.prompt_tokens
            if hit and request.prefix_tokens > 0:
                tokens = max(1, tokens - request.prefix_tokens)
            t_prefill = self.sim.engine.prefill_time_s(
                InferenceWorkload(
                    prompt_tokens=tokens,
                    generate_tokens=request.generate_tokens,
                    batch_size=1,
                )
            )
            if role is ReplicaRole.UNIFIED:
                replica.scheduler.admit(request, now)
                self.cursor_snap[request.index] = replica.decode_cursor_wh
                self.decode_replica[request.index] = replica.index
            else:
                replica.handoff[request.index] = request
            replica.begin_phase(
                now, t_prefill, self.util_prefill, _PREFILL, (request.index,)
            )
            self._observe_depth()
            return
        if role is ReplicaRole.UNIFIED and replica.scheduler.active:
            self._begin_decode(replica, now)

    # -- fused decode runs ---------------------------------------------------

    def _begin_decode(self, replica: Replica, now: float) -> None:
        """Schedule one fused decode run to the batch's next completion."""
        active = replica.scheduler.active
        batch = len(active)
        step_s = self._decode_cache.get(batch)
        if step_s is None:
            step_s = self.sim.engine.decode_step_time_s(batch)
            self._decode_cache[batch] = step_s
        steps = min(seq.request.generate_tokens - seq.generated for seq in active)
        replica.account_to(now)
        t_end = _run_end(now, step_s, steps)
        replica.busy_until_s = t_end
        replica.phase = (now, t_end, self.util_decode, _FUSED_DECODE, ())
        self._runs[replica.index] = (steps, step_s, batch)
        first_t = now + step_s
        for seq in active:
            if seq.first_token_s is None:
                # First decode step these sequences participate in:
                # their first token lands at its end.
                seq.first_token_s = first_t

    def _cut_run(self, replica: Replica, now: float) -> None:
        """End the replica's run at the first step boundary at or after ``now``.

        A boundary at ``now`` itself is where per-step stepping has
        just finished a step, so the run finishes here, before
        ``_dispatch`` admits the request.
        """
        steps, step_s, batch = self._runs[replica.index]
        t0, t_end = replica.phase[0], replica.phase[1]
        taken = _steps_to_arrival(t0, step_s, steps, now)
        if taken == steps:
            return
        if self._armed_busy[replica.index] == t_end:
            # Withdraw the superseded end, and forget it was armed so a
            # later phase ending at that same time is pushed anew.
            self.events.cancel(t_end)
            self._armed_busy[replica.index] = None
        t_cut = _run_end(t0, step_s, taken)
        replica.busy_until_s = t_cut
        replica.phase = (t0, t_cut, self.util_decode, _FUSED_DECODE, ())
        self._runs[replica.index] = (taken, step_s, batch)
        if t_cut == now:
            self._finish_run(replica)

    def _finish_run(self, replica: Replica) -> None:
        """Close one fused run: fold its steps, then bulk tokens, evictions."""
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
        replica.decode_steps += steps
        replica.last_active_s = t1
        replica._accounted_until_s = t1  # the fold closed the gap
        replica.busy_until_s = None
        replica.phase = None
        for seq in replica.scheduler.active:
            seq.generated += steps
        for seq in replica.scheduler.evict_done():
            self._complete(seq, t1, replica)

    # -- results -------------------------------------------------------------

    def rejected(self) -> tuple[Request, ...]:
        """Every shed request (queue overflow at either pool)."""
        shed: list[Request] = []
        for replica in self.replicas:
            shed.extend(replica.queue.rejected)
        return tuple(sorted(shed, key=lambda r: r.index))

    def records(self) -> Iterator[RequestRecord]:
        """One record per completed request, in completion order."""
        for seq, completed_s in self.finished:
            request = seq.request
            yield RequestRecord(
                index=request.index,
                arrival_s=request.arrival_s,
                admitted_s=self.admitted_at[request.index],
                first_token_s=seq.first_token_s,
                completed_s=completed_s,
                prompt_tokens=request.prompt_tokens,
                generate_tokens=request.generate_tokens,
                energy_wh=self.energy_wh.get(request.index, 0.0),
            )

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
        tracer = get_tracer()
        if tracer.enabled:
            tracer.complete_span(
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


def _run_end(t: float, step_s: float, steps: int) -> float:
    """The last boundary of a run of ``steps`` steps from ``t``.

    The same fold ``t += step_s`` the run's boundaries are made of.
    """
    for _ in range(steps):
        t += step_s
    return t

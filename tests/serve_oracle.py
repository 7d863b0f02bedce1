"""Differential oracle of the serving simulators: the per-step loops.

The shipped loops (:mod:`repro.serve.fastsim`,
:mod:`repro.serve.cluster.fastsim`) schedule completions on heaps, fuse
decode steps into runs and record attribution inputs compactly.  The
reference loops here step the model literally — one loop iteration per
decode step of every replica, a scan over every event source for the
next event, every active sequence advanced token by token
(:func:`step_completed`), a membership tuple per decode step — and are
the executable specification the shipped loops are tested against:
every observable output of a run must be byte-identical between
:class:`ReferenceServingSimulator` / :class:`ReferenceClusterSimulator`
and the shipped simulators.

Each oracle plugs in by subclassing its simulator and overriding the
private loop constructor, so admission, routing, transfers, telemetry
probes, the summariser and the result types are the shipped ones.

``benchmarks/bench_serve_cluster.py`` imports this module (with
``tests/`` on ``sys.path``) for its fast:reference wall-time ratio.
"""

from __future__ import annotations

from repro.engine.inference import DECODE_UTILISATION_FRACTION, InferenceWorkload
from repro.faults.injector import get_injector
from repro.serve.cluster.fastsim import _ClusterLoop
from repro.serve.cluster.simulator import ClusterSimulator
from repro.serve.cluster.replica import ReplicaState
from repro.serve.fastsim import _ServeLoop
from repro.serve.scheduler import ContinuousBatchScheduler, Sequence
from repro.serve.simulator import ServingSimulator

#: Phase kinds the reference loops record.
PHASE_PREFILL, PHASE_DECODE = "prefill", "decode"


def step_completed(scheduler: ContinuousBatchScheduler, now_s: float) -> list[Sequence]:
    """Account one finished decode step across the whole batch.

    Every active sequence gains one token (stamping its first-token
    time on the first); finished sequences are evicted and returned in
    admission order.
    """
    for seq in scheduler.active:
        seq.generated += 1
        if seq.first_token_s is None:
            seq.first_token_s = now_s
    return scheduler.evict_done()


class ReferenceServeLoop(_ServeLoop):
    """Per-event stepping over per-request objects, single engine."""

    def __init__(self, sim, requests) -> None:
        super().__init__(sim, requests)
        # (t0, t1, members, kind) per phase.
        self.intervals: list[tuple[float, float, tuple[int, ...], str]] = []

    def run(self, runner, clock) -> None:
        """The scheduler loop: idle, admit+prefill, decode, evict."""
        sim = self.sim
        engine = sim.engine
        injector = get_injector()
        tag = engine.node.jube_tag
        util_prefill = engine.cal.util_full_llm
        util_decode = engine.cal.util_full_llm * DECODE_UTILISATION_FRACTION
        self._ingest(clock.now())
        self._gauge_queue(tag)
        self._tick(clock.now())
        while self.pending or len(self.queue) or self.scheduler.active:
            now = clock.now()
            if not self.scheduler.active and not len(self.queue):
                nxt = self.pending[0]
                if nxt.arrival_s > now:
                    runner.idle(nxt.arrival_s - now)
                self._tick(clock.now())
                self._ingest(clock.now())
                if self.pending and self.pending[0] is nxt:
                    self.queue.offer(self.pending.popleft())
                self._gauge_queue(tag)
                continue
            while len(self.queue) and self.scheduler.fits(self.queue.peek()):
                request = self.queue.pop()
                self.scheduler.admit(request, clock.now())
                t_prefill = engine.prefill_time_s(
                    InferenceWorkload(
                        prompt_tokens=request.prompt_tokens,
                        generate_tokens=request.generate_tokens,
                        batch_size=1,
                    )
                )
                factor = (
                    injector.straggler_factor(clock.now(), self.decode_steps)
                    if injector.enabled
                    else 1.0
                )
                t0 = clock.now()
                runner.run_phase(t_prefill * factor, util_prefill)
                self.intervals.append(
                    (t0, clock.now(), (request.index,), PHASE_PREFILL)
                )
                self._tick(clock.now())
            self._gauge_queue(tag)
            if not self.scheduler.active:
                continue
            now = clock.now()
            if injector.enabled:
                injector.check_step(now, self.decode_steps)
            factor = (
                injector.straggler_factor(now, self.decode_steps)
                if injector.enabled
                else 1.0
            )
            step_s = engine.decode_step_time_s(self.scheduler.batch_size) * factor
            members = tuple(s.request.index for s in self.scheduler.active)
            runner.run_phase(step_s, util_decode)
            self.decode_steps += 1
            self.intervals.append((now, clock.now(), members, PHASE_DECODE))
            self._tick(clock.now())
            for seq in step_completed(self.scheduler, clock.now()):
                self._complete(seq, clock.now())
            self._ingest(clock.now())
            self._gauge_queue(tag)

    def attribute_energy(self, runner) -> None:
        """Derive the attribution inputs from the membership tuples."""
        first_seen: dict[int, int] = {}
        last_seen: dict[int, int] = {}
        step = 0
        for t0, t1, members, kind in self.intervals:
            if kind == PHASE_PREFILL:
                self.prefill_events.append((members[0], t0, t1))
                continue
            self.step_t0.append(t0)
            self.step_t1.append(t1)
            self.step_batch.append(len(members))
            for index in members:
                if index not in first_seen:
                    first_seen[index] = step
                last_seen[index] = step
            step += 1
        self.spans.extend(
            (index, first, last_seen[index]) for index, first in first_seen.items()
        )
        super().attribute_energy(runner)


class ReferenceServingSimulator(ServingSimulator):
    """:class:`ServingSimulator` driven by :class:`ReferenceServeLoop`."""

    def _make_loop(self, requests):
        return ReferenceServeLoop(self, requests)


class ReferenceClusterLoop(_ClusterLoop):
    """One loop iteration per decode step of every replica.

    At every event it checks every replica for a spin-up that became
    ready and offers every free running replica its next action, with
    or without an autoscaler and whether or not the replica has work.
    """

    def _next_event_time(self, now: float) -> float:
        times = []
        if self.pending:
            times.append(max(self.pending[0].arrival_s, now))
        for r in self.replicas:
            if r.busy_until_s is not None:
                times.append(r.busy_until_s)
            if r.state is ReplicaState.STARTING:
                times.append(r.ready_at_s)
        for tr in self.transfers:
            times.append(tr.done_at_s)
        if self.autoscaler is not None:
            times.append(self.autoscaler.next_eval_s)
        return min(times)

    def run(self) -> None:
        """Drive the cluster until every admitted request drains."""
        self._observe_replicas()
        self._ingest(self.clock.now())
        self._dispatch(self.clock.now())
        if self.sampler is not None:
            self.sampler.tick(self.clock.now())
        while self._work_remaining():
            now = self.clock.now()
            target = self._next_event_time(now)
            if target > now:
                self.clock.advance_to(target)
                now = target
            if self.sampler is not None:
                self.sampler.tick(now)
            self._replica_transitions(now)
            self._phase_completions(now)
            self._ingest(now)
            self._transfer_completions(now)
            if self.autoscaler is not None and self.autoscaler.due(now):
                started, stopped = self.autoscaler.evaluate(now)
                if started or stopped:
                    self._observe_replicas()
            self._dispatch(now)
        end = self.clock.now()
        for replica in self.replicas:
            replica.account_to(max(end, replica.ready_at_s))

    def _dispatch(self, now: float) -> None:
        """Call ``_next_action`` on every free running replica, idle or not."""
        for replica in self.replicas:
            if (
                replica.busy_until_s is None
                and replica.state is ReplicaState.RUNNING
            ):
                self._next_action(replica, now)

    def _phase_completions(self, now: float) -> None:
        for replica in self.replicas:
            if replica.busy_until_s is None or replica.busy_until_s > now:
                continue
            if replica.phase[3] != PHASE_DECODE:
                self._finish_prefill(replica)
                continue
            t0, t1, util, _, members = replica.finish_phase()
            phase_wh = replica.phase_energy_wh(util, t1 - t0)
            replica.decode_cursor_wh += phase_wh / len(members)
            replica.decode_steps += 1
            for seq in step_completed(replica.scheduler, t1):
                self._complete(seq, t1, replica)

    def _begin_decode(self, replica, now: float) -> None:
        members = tuple(s.request.index for s in replica.scheduler.active)
        step_s = self.sim.engine.decode_step_time_s(len(members))
        replica.begin_phase(now, step_s, self.util_decode, PHASE_DECODE, members)


class ReferenceClusterSimulator(ClusterSimulator):
    """:class:`ClusterSimulator` driven by :class:`ReferenceClusterLoop`."""

    def _make_loop(self, requests, clock):
        return ReferenceClusterLoop(self, requests, clock)


#: The simulators the differential tests compare, by engine name: the
#: oracle ("reference") and the shipped simulator ("fast").
SERVING_SIMULATORS = {"reference": ReferenceServingSimulator, "fast": ServingSimulator}
CLUSTER_SIMULATORS = {"reference": ReferenceClusterSimulator, "fast": ClusterSimulator}

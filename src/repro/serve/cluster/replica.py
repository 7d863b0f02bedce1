"""One engine replica of the serving cluster.

A :class:`Replica` bundles the per-replica state the cluster simulator
drives: an admission queue, a continuous-batching scheduler over the
shared engine model, a replica-local **prefix registry** (which
sessions' shared prompt prefixes are resident in its KV/prefix cache),
and a lifecycle state machine::

    STOPPED --spin_up--> STARTING --ready--> RUNNING --spin_down--> STOPPED

Energy is integrated analytically from the replica's calibrated
:class:`~repro.power.model.PowerModel` over its piecewise-constant
utilisation profile — busy phases at the engine's utilisation points,
idle gaps at utilisation 0 (idle watts, the honest overprovisioning
cost), spin-up at a fixed utilisation over the spin-up delay, and
nothing at all while ``STOPPED``.  The per-replica totals sum exactly
to the cluster's device energy, which the property suite asserts.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass

from repro.engine.inference import InferenceEngine
from repro.errors import ConfigError
from repro.power.model import power_model_for_device
from repro.serve.arrivals import Request
from repro.serve.queue import DEFAULT_QUEUE_CAPACITY, AdmissionQueue
from repro.serve.scheduler import ContinuousBatchScheduler

#: Sessions one replica's prefix registry can hold (vLLM-style prefix
#: caches are bounded by KV blocks; this models the bound at session
#: granularity, evicting least-recently-used sessions).
DEFAULT_PREFIX_CACHE_SLOTS = 64

#: Seconds-to-Wh conversion for the analytic energy integration.
JOULES_PER_WH = 3600.0


class ReplicaRole(str, enum.Enum):
    """What work a replica performs.

    ``UNIFIED`` replicas prefill and decode (the default); ``PREFILL``
    and ``DECODE`` replicas are the two halves of a disaggregated
    deployment, with KV state handed off over the interconnect.
    """

    UNIFIED = "unified"
    PREFILL = "prefill"
    DECODE = "decode"


class ReplicaState(str, enum.Enum):
    """Lifecycle state of one replica."""

    STOPPED = "stopped"
    STARTING = "starting"
    RUNNING = "running"


@dataclass(frozen=True)
class ReplicaStats:
    """Immutable end-of-run snapshot of one replica's accounting."""

    index: int
    role: str
    completed: int
    prefills: int
    prefix_hits: int
    decode_steps: int
    spinups: int
    busy_s: float
    idle_s: float
    spinup_s: float
    busy_energy_wh: float
    idle_energy_wh: float
    spinup_energy_wh: float

    @property
    def on_s(self) -> float:
        """Total powered-on time (busy + idle + spinning up)."""
        return self.busy_s + self.idle_s + self.spinup_s

    @property
    def energy_wh(self) -> float:
        """Total energy the replica drew while powered on."""
        return self.busy_energy_wh + self.idle_energy_wh + self.spinup_energy_wh

    @property
    def busy_fraction(self) -> float:
        """Fraction of powered-on time spent busy (0 if never on)."""
        return self.busy_s / self.on_s if self.on_s > 0 else 0.0

    def to_dict(self) -> dict:
        """Flat JSON-ready mapping (stable keys)."""
        return {
            "index": self.index,
            "role": self.role,
            "completed": self.completed,
            "prefills": self.prefills,
            "prefix_hits": self.prefix_hits,
            "decode_steps": self.decode_steps,
            "spinups": self.spinups,
            "busy_s": self.busy_s,
            "idle_s": self.idle_s,
            "spinup_s": self.spinup_s,
            "on_s": self.on_s,
            "busy_fraction": self.busy_fraction,
            "busy_energy_wh": self.busy_energy_wh,
            "idle_energy_wh": self.idle_energy_wh,
            "spinup_energy_wh": self.spinup_energy_wh,
            "energy_wh": self.energy_wh,
        }


class Replica:
    """Mutable state of one cluster replica, driven by the simulator.

    Parameters
    ----------
    index:
        Stable replica id (device index, trace track suffix).
    engine:
        The shared roofline/memory model (pure functions; replicas keep
        their own scheduler state over it).
    batch_cap / queue_capacity:
        Per-replica continuous-batching cap and admission-queue bound.
    role:
        ``UNIFIED`` (default), or one side of a disaggregated pool.
    prefix_cache_slots:
        LRU bound of the session-prefix registry.
    started:
        Whether the replica begins ``RUNNING`` (static clusters) or
        ``STOPPED`` (autoscaled spares).
    start_s:
        Simulated time accounting starts at (the cluster run's t0).
    """

    def __init__(
        self,
        index: int,
        engine: InferenceEngine,
        *,
        batch_cap: int,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        role: ReplicaRole = ReplicaRole.UNIFIED,
        prefix_cache_slots: int = DEFAULT_PREFIX_CACHE_SLOTS,
        started: bool = True,
        start_s: float = 0.0,
    ) -> None:
        if prefix_cache_slots < 1:
            raise ConfigError("prefix cache needs at least one slot")
        self.index = index
        self.engine = engine
        self.role = role
        self.power_model = power_model_for_device(
            engine.node.accelerator,
            cap_watts=engine.node.power_cap_watts,
        )
        self.queue = AdmissionQueue(queue_capacity)
        self.scheduler = ContinuousBatchScheduler(engine, batch_cap=batch_cap)
        self.state = ReplicaState.RUNNING if started else ReplicaState.STOPPED
        self.ready_at_s = start_s
        #: End of the current busy phase, or None when free.
        self.busy_until_s: float | None = None
        #: The current phase: (t0, t1, utilisation, kind, member indices).
        self.phase: tuple[float, float, float, str, tuple[int, ...]] | None = None
        self.last_active_s = start_s
        #: Prefilled requests awaiting their KV handoff (PREFILL role).
        self.handoff: dict[int, Request] = {}
        self._prefix_cache_slots = prefix_cache_slots
        self._prefix_cache: OrderedDict[int, None] = OrderedDict()
        self._accounted_until_s = start_s
        self._spinup_util = 0.0
        #: Running cumulative per-member decode share, in Wh: advanced
        #: by ``phase_wh / batch`` at every decode step this replica
        #: completes.  A request's decode energy is the cursor
        #: difference between its completion and its admission.
        self.decode_cursor_wh = 0.0
        # Accumulated accounting.
        self.completed = 0
        self.prefills = 0
        self.prefix_hits = 0
        self.decode_steps = 0
        self.spinups = 0
        self.busy_s = 0.0
        self.idle_s = 0.0
        self.spinup_s = 0.0
        self.busy_energy_j = 0.0
        self.idle_energy_j = 0.0
        self.spinup_energy_j = 0.0

    # -- routing surface -----------------------------------------------------

    @property
    def accepting(self) -> bool:
        """Whether the router may place new requests here."""
        return self.state in (ReplicaState.RUNNING, ReplicaState.STARTING)

    @property
    def load(self) -> int:
        """Requests queued plus currently decoding (router load metric)."""
        return len(self.queue) + self.scheduler.batch_size

    @property
    def drained(self) -> bool:
        """No queued, batched, or in-phase work."""
        return (
            not len(self.queue)
            and not self.scheduler.active
            and self.busy_until_s is None
        )

    def has_prefix(self, session: int) -> bool:
        """Whether the session's shared prefix is resident here."""
        return session in self._prefix_cache

    def note_prefill(self, session: int | None) -> bool:
        """Record a prefill of ``session``; returns True on a cache hit.

        A hit refreshes the session's LRU position; a miss inserts it,
        evicting the least-recently-used session at capacity.  Session-
        less requests never hit.
        """
        if session is None:
            return False
        hit = session in self._prefix_cache
        if hit:
            self._prefix_cache.move_to_end(session)
        else:
            self._prefix_cache[session] = None
            while len(self._prefix_cache) > self._prefix_cache_slots:
                self._prefix_cache.popitem(last=False)
        return hit

    # -- energy/time accounting ---------------------------------------------

    def account_to(self, now_s: float) -> None:
        """Close the accounting gap up to ``now_s``.

        A ``RUNNING``/``STARTING`` replica with no phase in flight
        accrues idle time at utilisation 0 (idle watts); a ``STOPPED``
        replica accrues nothing.  Busy phases advance the accounting
        cursor themselves in :meth:`finish_phase`.
        """
        dt = now_s - self._accounted_until_s
        if dt <= 0:
            return
        if self.state is not ReplicaState.STOPPED:
            self.idle_s += dt
            self.idle_energy_j += self.power_model.energy(0.0, dt)
        self._accounted_until_s = now_s

    def begin_phase(
        self,
        now_s: float,
        duration_s: float,
        utilisation: float,
        kind: str,
        members: tuple[int, ...],
    ) -> None:
        """Start one busy phase (a prefill or one decode step)."""
        if self.busy_until_s is not None:
            raise ConfigError(f"replica {self.index} is already busy")
        if self.state is not ReplicaState.RUNNING:
            raise ConfigError(f"replica {self.index} is not running")
        self.account_to(now_s)
        self.busy_until_s = now_s + duration_s
        self.phase = (now_s, self.busy_until_s, utilisation, kind, members)

    def finish_phase(self) -> tuple[float, float, float, str, tuple[int, ...]]:
        """Account the finished phase; returns it for attribution."""
        if self.phase is None or self.busy_until_s is None:
            raise ConfigError(f"replica {self.index} has no phase in flight")
        t0, t1, util, kind, members = self.phase
        dt = t1 - t0
        self.busy_s += dt
        self.busy_energy_j += self.power_model.energy(util, dt)
        self._accounted_until_s = t1
        self.last_active_s = t1
        self.busy_until_s = None
        self.phase = None
        return (t0, t1, util, kind, members)

    def phase_energy_wh(self, utilisation: float, duration_s: float) -> float:
        """Energy of one constant-utilisation phase, in Wh."""
        return self.power_model.energy(utilisation, duration_s) / JOULES_PER_WH

    def current_watts(self, now_s: float) -> float:
        """Instantaneous electrical power draw at ``now_s``, in watts.

        The telemetry sampler's power probe: 0 W while ``STOPPED``,
        the spin-up utilisation's power while ``STARTING``, the phase
        utilisation's power during a busy phase, idle power otherwise.
        """
        if self.state is ReplicaState.STOPPED:
            return 0.0
        if self.state is ReplicaState.STARTING:
            return self.power_model.power(self._spinup_util)
        if self.phase is not None:
            t0, t1, util, _, _ = self.phase
            if t0 <= now_s <= t1:
                return self.power_model.power(util)
        return self.power_model.power(0.0)

    # -- lifecycle -----------------------------------------------------------

    def spin_up(self, now_s: float, delay_s: float, utilisation: float) -> None:
        """``STOPPED -> STARTING``: pay the spin-up delay and energy.

        The spin-up interval draws power at ``utilisation`` (weights
        streaming in, allocator warm-up); the replica starts accepting
        routed requests immediately but only begins work once
        ``RUNNING`` at ``ready_at_s``.
        """
        if self.state is not ReplicaState.STOPPED:
            raise ConfigError(f"replica {self.index} is not stopped")
        self.account_to(now_s)
        self.state = ReplicaState.STARTING
        self._spinup_util = utilisation
        self.ready_at_s = now_s + delay_s
        self.spinups += 1
        self.spinup_s += delay_s
        self.spinup_energy_j += self.power_model.energy(utilisation, delay_s)
        self._accounted_until_s = self.ready_at_s
        self.last_active_s = self.ready_at_s

    def set_running(self, now_s: float) -> None:
        """``STARTING -> RUNNING`` once the spin-up delay elapsed."""
        if self.state is not ReplicaState.STARTING:
            raise ConfigError(f"replica {self.index} is not starting")
        self.state = ReplicaState.RUNNING

    def spin_down(self, now_s: float) -> None:
        """``RUNNING -> STOPPED``: stop drawing idle power.

        Only a drained replica may despawn — the autoscaler never
        discards queued or in-flight work.
        """
        if self.state is not ReplicaState.RUNNING:
            raise ConfigError(f"replica {self.index} is not running")
        if not self.drained:
            raise ConfigError(f"replica {self.index} still has work")
        self.account_to(now_s)
        self.state = ReplicaState.STOPPED

    # -- reporting -----------------------------------------------------------

    def stats(self) -> ReplicaStats:
        """The replica's accounting as an immutable snapshot."""
        return ReplicaStats(
            index=self.index,
            role=self.role.value,
            completed=self.completed,
            prefills=self.prefills,
            prefix_hits=self.prefix_hits,
            decode_steps=self.decode_steps,
            spinups=self.spinups,
            busy_s=self.busy_s,
            idle_s=self.idle_s,
            spinup_s=self.spinup_s,
            busy_energy_wh=self.busy_energy_j / JOULES_PER_WH,
            idle_energy_wh=self.idle_energy_j / JOULES_PER_WH,
            spinup_energy_wh=self.spinup_energy_j / JOULES_PER_WH,
        )

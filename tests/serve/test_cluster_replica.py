"""Replica lifecycle, prefix-cache LRU, accounting; autoscaler ticks."""

from __future__ import annotations

import random

import pytest

from repro.engine.inference import DECODE_UTILISATION_FRACTION, InferenceEngine
from repro.errors import ConfigError
from repro.hardware.accelerator import AcceleratorKind
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.models.transformer import get_gpt_preset
from repro.serve.cluster.autoscaler import AutoscalePolicy, Autoscaler
from repro.serve.cluster.replica import (
    JOULES_PER_WH,
    Replica,
    ReplicaRole,
    ReplicaState,
)

pytestmark = [pytest.mark.serve, pytest.mark.cluster]

#: The Table I systems a serving replica runs on (every GPU system).
SERVING_TAGS = tuple(
    tag
    for tag in SYSTEM_TAGS
    if get_system(tag).accelerator.kind is not AcceleratorKind.IPU
)


@pytest.fixture
def engine():
    return InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))


def make_replica(engine, **kwargs):
    kwargs.setdefault("batch_cap", 4)
    return Replica(0, engine, **kwargs)


class TestLifecycle:
    def test_started_replica_is_running_and_accepting(self, engine):
        replica = make_replica(engine)
        assert replica.state is ReplicaState.RUNNING
        assert replica.accepting and replica.drained

    def test_stopped_spare_accepts_nothing_until_spun_up(self, engine):
        replica = make_replica(engine, started=False)
        assert replica.state is ReplicaState.STOPPED
        assert not replica.accepting
        replica.spin_up(1.0, delay_s=2.0, utilisation=0.5)
        assert replica.state is ReplicaState.STARTING
        assert replica.accepting  # routable while warming up
        assert replica.ready_at_s == 3.0
        replica.set_running(3.0)
        assert replica.state is ReplicaState.RUNNING

    def test_accepting_follows_every_state_transition(self, engine):
        replica = make_replica(engine, started=False)

        def check(state, accepting):
            assert replica.state is state
            assert replica.accepting is accepting
            assert accepting is (
                state in (ReplicaState.RUNNING, ReplicaState.STARTING)
            )

        check(ReplicaState.STOPPED, False)
        for t in (0.0, 10.0):
            replica.spin_up(t, delay_s=2.0, utilisation=0.5)
            check(ReplicaState.STARTING, True)
            with pytest.raises(ConfigError):
                replica.spin_down(t + 1.0)  # refused: the state stands
            check(ReplicaState.STARTING, True)
            replica.set_running(t + 2.0)
            check(ReplicaState.RUNNING, True)
            replica.spin_down(t + 3.0)
            check(ReplicaState.STOPPED, False)
            with pytest.raises(ConfigError):
                replica.set_running(t + 4.0)
            check(ReplicaState.STOPPED, False)
        assert make_replica(engine).accepting is True

    def test_spin_up_requires_stopped(self, engine):
        replica = make_replica(engine)
        with pytest.raises(ConfigError, match="not stopped"):
            replica.spin_up(0.0, delay_s=1.0, utilisation=0.5)

    def test_set_running_requires_starting(self, engine):
        replica = make_replica(engine)
        with pytest.raises(ConfigError, match="not starting"):
            replica.set_running(0.0)

    def test_spin_down_requires_running_and_drained(self, engine):
        stopped = make_replica(engine, started=False)
        with pytest.raises(ConfigError, match="not running"):
            stopped.spin_down(0.0)
        busy = make_replica(engine)
        busy.begin_phase(0.0, 1.0, 0.8, "prefill", (0,))
        with pytest.raises(ConfigError, match="still has work"):
            busy.spin_down(0.5)

    def test_phase_bookkeeping_errors(self, engine):
        replica = make_replica(engine)
        with pytest.raises(ConfigError, match="no phase in flight"):
            replica.finish_phase()
        replica.begin_phase(0.0, 1.0, 0.8, "prefill", (0,))
        with pytest.raises(ConfigError, match="already busy"):
            replica.begin_phase(0.5, 1.0, 0.8, "prefill", (1,))
        spare = make_replica(engine, started=False)
        with pytest.raises(ConfigError, match="not running"):
            spare.begin_phase(0.0, 1.0, 0.8, "prefill", (0,))

    def test_prefix_cache_needs_a_slot(self, engine):
        with pytest.raises(ConfigError, match="at least one slot"):
            make_replica(engine, prefix_cache_slots=0)


class TestPrefixCache:
    def test_miss_then_hit(self, engine):
        replica = make_replica(engine)
        assert replica.note_prefill(3) is False
        assert replica.note_prefill(3) is True
        assert replica.has_prefix(3)

    def test_sessionless_never_hits(self, engine):
        replica = make_replica(engine)
        assert replica.note_prefill(None) is False
        assert replica.note_prefill(None) is False

    def test_lru_eviction_at_capacity(self, engine):
        replica = make_replica(engine, prefix_cache_slots=2)
        replica.note_prefill(1)
        replica.note_prefill(2)
        replica.note_prefill(1)  # refresh: 2 is now least recent
        replica.note_prefill(3)  # evicts 2
        assert replica.has_prefix(1) and replica.has_prefix(3)
        assert not replica.has_prefix(2)


class TestAccounting:
    def test_idle_time_draws_idle_power(self, engine):
        replica = make_replica(engine)
        replica.account_to(5.0)
        stats = replica.stats()
        assert stats.idle_s == 5.0
        assert stats.idle_energy_wh == pytest.approx(
            replica.power_model.energy(0.0, 5.0) / JOULES_PER_WH
        )

    def test_stopped_replica_accrues_nothing(self, engine):
        replica = make_replica(engine, started=False)
        replica.account_to(100.0)
        stats = replica.stats()
        assert stats.on_s == 0.0 and stats.energy_wh == 0.0
        assert stats.busy_fraction == 0.0

    def test_phase_splits_busy_from_idle(self, engine):
        replica = make_replica(engine)
        replica.begin_phase(2.0, 3.0, 0.9, "prefill", (0,))
        phase = replica.finish_phase()
        assert phase == (2.0, 5.0, 0.9, "prefill", (0,))
        stats = replica.stats()
        assert stats.idle_s == 2.0 and stats.busy_s == 3.0
        assert stats.busy_energy_wh > stats.idle_energy_wh

    @pytest.mark.parametrize("tag", SERVING_TAGS)
    def test_energies_equal_the_power_model_bit_for_bit(self, tag):
        # A replica computes its idle watts and each phase utilisation's
        # watts once; energy(u, dt) is power(u) * dt, so the idle,
        # prefill and decode energies of any duration are the power
        # model's, bit for bit.
        engine = InferenceEngine(get_system(tag), get_gpt_preset("800M"))
        model = make_replica(engine).power_model
        prefill = engine.cal.util_full_llm
        decode = prefill * DECODE_UTILISATION_FRACTION
        rng = random.Random(tag)
        for _ in range(40):
            dt = rng.choice((rng.uniform(1e-4, 0.05), rng.uniform(0.05, 30.0)))
            idle = make_replica(engine)
            idle.account_to(dt)
            assert idle.idle_energy_j.hex() == model.energy(0.0, dt).hex()
            for util in (prefill, decode):
                busy = make_replica(engine)
                busy.begin_phase(0.0, dt, util, "prefill", (0,))
                busy.finish_phase()
                assert busy.busy_energy_j.hex() == model.energy(util, dt).hex()
                assert (
                    busy.phase_energy_wh(util, dt).hex()
                    == (model.energy(util, dt) / JOULES_PER_WH).hex()
                )

    def test_stats_dict_round_trips_totals(self, engine):
        replica = make_replica(engine)
        replica.account_to(1.0)
        out = replica.stats().to_dict()
        assert out["on_s"] == out["busy_s"] + out["idle_s"] + out["spinup_s"]
        assert out["energy_wh"] == pytest.approx(
            out["busy_energy_wh"]
            + out["idle_energy_wh"]
            + out["spinup_energy_wh"]
        )
        assert out["role"] == ReplicaRole.UNIFIED.value


class TestAutoscalerTicks:
    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            AutoscalePolicy(min_replicas=0)
        with pytest.raises(ConfigError):
            AutoscalePolicy(target_queue_per_replica=0.0)
        with pytest.raises(ConfigError):
            AutoscalePolicy(evaluate_interval_s=0.0)
        with pytest.raises(ConfigError):
            AutoscalePolicy(spinup_delay_s=-1.0)
        with pytest.raises(ConfigError):
            AutoscalePolicy(spinup_utilisation=1.5)

    def test_pool_must_cover_min_replicas(self, engine):
        with pytest.raises(ConfigError, match="exceeds the pool"):
            Autoscaler(
                AutoscalePolicy(min_replicas=2), [make_replica(engine)]
            )

    def test_due_follows_the_cadence(self, engine):
        scaler = Autoscaler(
            AutoscalePolicy(evaluate_interval_s=2.0), [make_replica(engine)]
        )
        assert not scaler.due(1.0)
        assert scaler.due(2.0)
        scaler.evaluate(2.0)
        assert not scaler.due(3.0)
        assert scaler.due(4.0)

    def test_scale_up_spins_stopped_spares(self, engine):
        replicas = [make_replica(engine)] + [
            Replica(i, engine, batch_cap=4, started=False) for i in (1, 2)
        ]
        # Queue depth 9 against target 2/replica wants ceil(9/2)=5,
        # clamped to the pool of 3 -> both spares spin up.
        for _ in range(9):
            replicas[0].queue.offer(object())
        scaler = Autoscaler(
            AutoscalePolicy(target_queue_per_replica=2.0), replicas
        )
        started, stopped = scaler.evaluate(1.0)
        assert (started, stopped) == (2, 0)
        assert all(r.state is ReplicaState.STARTING for r in replicas[1:])
        assert scaler.scale_ups == 2

    def test_scale_down_respects_grace_and_floor(self, engine):
        replicas = [make_replica(engine), make_replica(engine)]
        policy = AutoscalePolicy(min_replicas=1, scale_down_idle_s=5.0)
        scaler = Autoscaler(policy, replicas)
        # Before the grace period: nothing despawns.
        assert scaler.evaluate(1.0) == (0, 0)
        # Past it: exactly one goes (the floor keeps the other).
        started, stopped = scaler.evaluate(10.0)
        assert (started, stopped) == (0, 1)
        states = sorted(r.state.value for r in replicas)
        assert states == ["running", "stopped"]
        assert scaler.evaluate(20.0) == (0, 0)

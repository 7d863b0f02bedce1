"""Property-based invariants of the multi-replica serving cluster.

Same style as the other property suites: stdlib ``random`` with fixed
seeds, many generated configurations per property.  The invariants are
the ones the cluster's accounting leans on:

* **conservation** — every offered request is either completed or
  rejected once the cluster drains (nothing vanishes in flight),
* **energy closure** — per-replica busy/idle/spin-up energy plus the
  KV-transfer energy sums exactly to the cluster total,
* **routing safety** — no policy ever places a request on a replica
  that is not accepting (e.g. despawned by the autoscaler),
* **least-loaded tie-break** — every router that picks the least-loaded
  candidate picks the minimum over (load, index),
* **determinism** — identical seeds and configuration reproduce the
  per-request records byte for byte.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.inference import InferenceEngine
from repro.errors import ConfigError
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.serve import BurstArrivals, PoissonArrivals, SessionArrivals
from repro.serve.cluster import (
    AutoscalePolicy,
    ClusterSimulator,
    DisaggregationSpec,
    ROUTER_POLICIES,
    make_router,
)
from repro.serve.cluster.router import PREFIX_HIT_LOAD_SLACK, _least_loaded

pytestmark = [pytest.mark.serve, pytest.mark.cluster]

#: Simulated cluster runs per property (each run is a full simulation).
CASES = 20


def _engine() -> InferenceEngine:
    return InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))


def random_arrivals(rng: random.Random):
    """A small random arrival stream of any of the three cluster kinds."""
    kind = rng.choice(("poisson", "session", "burst"))
    requests = rng.randint(4, 16)
    if kind == "poisson":
        return PoissonArrivals(
            rate_per_s=rng.choice((2.0, 8.0, 32.0)),
            requests=requests,
            prompt_tokens=rng.choice((128, 512)),
            generate_tokens=rng.choice((8, 32)),
            length_spread=rng.choice((0.0, 0.25)),
            seed=rng.randint(0, 999),
        )
    if kind == "session":
        return SessionArrivals(
            rate_per_s=rng.choice((2.0, 8.0, 32.0)),
            requests=requests,
            sessions=rng.randint(1, 4),
            prompt_tokens=512,
            prefix_tokens=rng.choice((0, 256, 384)),
            generate_tokens=rng.choice((8, 32)),
            seed=rng.randint(0, 999),
        )
    return BurstArrivals(
        bursts=((0.0, max(1, requests // 2)), (10.0, max(1, requests // 2))),
        prompt_tokens=rng.choice((128, 512)),
        generate_tokens=rng.choice((8, 32)),
    )


def random_cluster(rng: random.Random, engine: InferenceEngine) -> ClusterSimulator:
    """A random cluster shape: unified, autoscaled or disaggregated."""
    shape = rng.choice(("unified", "autoscale", "disagg"))
    router = rng.choice(sorted(ROUTER_POLICIES))
    if shape == "autoscale":
        replicas = rng.randint(2, 4)
        return ClusterSimulator(
            engine,
            replicas=replicas,
            router=router,
            batch_cap=rng.choice((4, 16)),
            autoscale=AutoscalePolicy(
                min_replicas=rng.randint(1, replicas),
                spinup_delay_s=rng.choice((0.5, 2.0)),
                scale_down_idle_s=rng.choice((1.0, 10.0)),
            ),
        )
    if shape == "disagg":
        return ClusterSimulator(
            engine,
            router=router,
            batch_cap=rng.choice((4, 16)),
            disaggregation=DisaggregationSpec(
                rng.randint(1, 2), rng.randint(1, 2)
            ),
        )
    return ClusterSimulator(
        engine,
        replicas=rng.randint(1, 4),
        router=router,
        batch_cap=rng.choice((4, 16)),
        queue_capacity=rng.choice((2, 256)),
    )


class TestConservation:
    def test_offered_equals_completed_plus_rejected_at_drain(self):
        engine = _engine()
        rng = random.Random(0xC1A57E)
        for _ in range(CASES):
            result = random_cluster(rng, engine).run(random_arrivals(rng))
            s = result.summary.serve
            assert s.completed + s.rejected == s.offered
            assert s.completed == len(result.records)
            assert s.rejected == len(result.rejected)

    def test_every_request_appears_exactly_once(self):
        engine = _engine()
        rng = random.Random(0x0FFE12)
        for _ in range(CASES):
            result = random_cluster(rng, engine).run(random_arrivals(rng))
            completed = [r.record.index for r in result.records]
            shed = [r.index for r in result.rejected]
            indices = sorted(completed + shed)
            assert indices == list(range(len(indices)))


class TestEnergyClosure:
    def test_replica_energy_sums_to_cluster_total(self):
        engine = _engine()
        rng = random.Random(0xE4E26)
        for _ in range(CASES):
            summary = random_cluster(rng, engine).run(random_arrivals(rng)).summary
            parts = (
                sum(r.energy_wh for r in summary.replicas)
                + summary.transfer_energy_wh
            )
            assert summary.energy_wh == pytest.approx(parts, abs=1e-12)
            assert (
                summary.busy_energy_wh
                + summary.idle_energy_wh
                + summary.spinup_energy_wh
                + summary.transfer_energy_wh
            ) == pytest.approx(summary.energy_wh, abs=1e-12)

    def test_stopped_replicas_draw_nothing(self):
        # An autoscaled cluster that never needs its spares must report
        # exactly zero energy and zero powered-on time for them.
        engine = _engine()
        result = ClusterSimulator(
            engine,
            replicas=4,
            router="least-loaded",
            autoscale=AutoscalePolicy(
                min_replicas=1, target_queue_per_replica=1000.0
            ),
        ).run(PoissonArrivals(rate_per_s=2.0, requests=6, seed=1))
        spares = [r for r in result.summary.replicas if r.spinups == 0 and r.on_s == 0]
        assert len(spares) == 3
        for spare in spares:
            assert spare.energy_wh == 0.0


class _FakeReplica:
    """Duck-typed replica for pure router tests."""

    def __init__(self, index: int, accepting: bool, load: int, prefixes=()):
        self.index = index
        self.accepting = accepting
        self.load = load
        self._prefixes = set(prefixes)

    def has_prefix(self, session: int) -> bool:
        return session in self._prefixes


class _FakeRequest:
    """Duck-typed request carrying only what routers read."""

    def __init__(self, session, prefix_tokens=128):
        self.session = session
        self.prefix_tokens = prefix_tokens


class TestRoutingSafety:
    def test_routers_never_pick_a_non_accepting_replica(self):
        rng = random.Random(0x207E57)
        for _ in range(CASES * 10):
            replicas = [
                _FakeReplica(
                    i,
                    accepting=rng.random() < 0.6,
                    load=rng.randint(0, 8),
                    prefixes=[s for s in range(3) if rng.random() < 0.3],
                )
                for i in range(rng.randint(1, 6))
            ]
            router = make_router(rng.choice(sorted(ROUTER_POLICIES)))
            request = _FakeRequest(
                rng.choice((None, rng.randint(0, 2)))
            )
            if not any(r.accepting for r in replicas):
                with pytest.raises(ConfigError):
                    router.route(request, replicas)
                continue
            for _ in range(5):
                chosen = router.route(request, replicas)
                assert chosen.accepting

    def test_autoscaled_runs_route_only_to_live_replicas(self):
        # End to end: every completed request's replicas must have
        # existed and done work (their stats show activity).
        engine = _engine()
        result = ClusterSimulator(
            engine,
            replicas=3,
            router="least-loaded",
            autoscale=AutoscalePolicy(min_replicas=1, spinup_delay_s=0.5),
        ).run(BurstArrivals(bursts=((0.0, 8), (20.0, 8))))
        active = {r.index for r in result.summary.replicas if r.on_s > 0}
        for record in result.records:
            assert record.prefill_replica in active
            assert record.decode_replica in active


def _min_load_then_index(candidates):
    """The least-loaded pick by its definition: min over (load, index)."""
    return min(candidates, key=lambda r: (r.load, r.index))


class TestLeastLoadedTieBreak:
    def test_scan_picks_the_min_over_load_then_index(self):
        # Replica lists in any index order, with load ties and with
        # replicas that are not accepting: the plain scan must pick what
        # min over (load, index) picks, alone and inside every router
        # that falls back to it.
        rng = random.Random(0x71EB8EA4)
        routers = {
            name: make_router(name)
            for name in ("least-loaded", "session-affinity", "prefix-cache-aware")
        }
        for _ in range(CASES * 25):
            indices = list(range(rng.randint(1, 8)))
            rng.shuffle(indices)
            replicas = [
                _FakeReplica(
                    i,
                    accepting=rng.random() < 0.75,
                    load=rng.randint(0, 3),
                    prefixes=[s for s in range(3) if rng.random() < 0.4],
                )
                for i in indices
            ]
            candidates = [r for r in replicas if r.accepting]
            if not candidates:
                continue
            coldest = _min_load_then_index(candidates)
            assert _least_loaded(candidates) is coldest
            for name in ("least-loaded", "session-affinity"):
                assert routers[name].route(_FakeRequest(None), replicas) is coldest
            session = rng.choice((None, 0, 1, 2))
            request = _FakeRequest(session, prefix_tokens=rng.choice((0, 128)))
            hits = [
                r for r in candidates if session is not None and r.has_prefix(session)
            ]
            expected = coldest
            if hits and request.prefix_tokens > 0:
                best_hit = _min_load_then_index(hits)
                if best_hit.load - coldest.load <= PREFIX_HIT_LOAD_SLACK:
                    expected = best_hit
            assert routers["prefix-cache-aware"].route(request, replicas) is expected


class TestDeterminism:
    def test_identical_config_reproduces_records_byte_for_byte(self):
        engine = _engine()
        rng = random.Random(0xDE7E12)
        for _ in range(8):
            seed = rng.randint(0, 10_000)
            state = rng.getstate()
            first = random_cluster(rng, engine)
            rng.setstate(state)
            second = random_cluster(rng, engine)
            arrivals = PoissonArrivals(rate_per_s=8.0, requests=10, seed=seed)
            assert first.run(arrivals).records_json() == second.run(
                arrivals
            ).records_json()

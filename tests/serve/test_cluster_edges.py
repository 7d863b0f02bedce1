"""Cluster edge cases: empty streams, total shed, drain, bad disagg.

The corners the fast path is most likely to get wrong — loops that
never start, loops where nothing is ever admitted, autoscalers that
power the fleet down mid-run — pinned on **both** the shipped
simulator ("fast") and the per-step oracle of ``tests/serve_oracle.py``
("reference") so the behaviors can never diverge silently.
"""

from __future__ import annotations

import pytest

from repro.engine.inference import InferenceEngine
from repro.errors import ConfigError
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.serve import BurstArrivals
from repro.serve.cluster import AutoscalePolicy, DisaggregationSpec
from serve_oracle import CLUSTER_SIMULATORS

pytestmark = [pytest.mark.serve, pytest.mark.cluster]

ENGINES = ["reference", "fast"]


@pytest.fixture(autouse=True)
def fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


@pytest.fixture
def engine():
    return InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))


class _EmptyArrivals:
    """An arrival process that generates nothing."""

    def generate(self):
        return ()


class TestZeroArrivals:
    @pytest.mark.parametrize("mode", ENGINES)
    def test_empty_stream_is_a_config_error(self, engine, mode):
        sim = CLUSTER_SIMULATORS[mode](engine, replicas=2)
        with pytest.raises(ConfigError, match="no requests"):
            sim.run(_EmptyArrivals())


class TestTotalShed:
    @pytest.mark.parametrize("mode", ENGINES)
    def test_saturation_sheds_every_queued_request(self, engine, mode):
        # 16 requests land at t=0 on one replica with a 1-deep queue:
        # the head request is queued, everything else is shed before a
        # single decode step runs.
        sim = CLUSTER_SIMULATORS[mode](
            engine,
            replicas=1,
            batch_cap=1,
            queue_capacity=1,
                    )
        result = sim.run(BurstArrivals(bursts=((0.0, 16),), generate_tokens=32))
        s = result.summary.serve
        assert s.offered == 16
        assert s.completed == 1
        assert s.rejected == 15
        assert sorted(r.index for r in result.rejected) == list(range(1, 16))
        # The one survivor still gets full attribution.
        assert len(result.records) == 1
        assert result.records[0].record.energy_wh > 0

    def test_both_engines_shed_the_same_requests(self, engine):
        results = []
        for mode in ENGINES:
            set_metrics(MetricsRegistry())
            results.append(
                CLUSTER_SIMULATORS[mode](
                    engine,
                    replicas=1,
                    batch_cap=1,
                    queue_capacity=1,
                                    ).run(BurstArrivals(bursts=((0.0, 16),), generate_tokens=32))
            )
        ref, fast = results
        assert [r.index for r in ref.rejected] == [
            r.index for r in fast.rejected
        ]
        assert ref.records_json() == fast.records_json()


class TestAutoscalerDrain:
    DRAIN = BurstArrivals(bursts=((0.0, 48), (60.0, 1)), generate_tokens=512)

    @pytest.mark.parametrize("mode", ENGINES)
    def test_scales_to_min_during_quiet_tail(self, engine, mode):
        # A burst spins the fleet up; the long quiet gap before the
        # last request must drain every replica above the floor, and
        # the floor replica must stay on to serve the straggler.
        result = CLUSTER_SIMULATORS[mode](
            engine,
            replicas=4,
            batch_cap=2,
            autoscale=AutoscalePolicy(min_replicas=1),
                    ).run(self.DRAIN)
        stats = result.summary.replicas
        elapsed = result.train.elapsed_s
        assert result.summary.spinups == 3
        assert result.summary.serve.completed == 49
        floor, scaled = stats[0], stats[1:]
        assert floor.on_s == pytest.approx(elapsed, rel=1e-6)
        for replica in scaled:
            # Spun up for the burst, powered back down mid-run: on for
            # the spin-up delay plus the idle timeout, nowhere near the
            # full 60s+ horizon.
            assert 0 < replica.on_s < 20
        # Idle-energy accounting must stop at power-down.
        assert sum(s.idle_s for s in scaled) < 3 * 15

    def test_drain_timeline_identical_across_engines(self, engine):
        stats = []
        for mode in ENGINES:
            set_metrics(MetricsRegistry())
            result = CLUSTER_SIMULATORS[mode](
                engine,
                replicas=4,
                batch_cap=2,
                autoscale=AutoscalePolicy(min_replicas=1),
                            ).run(self.DRAIN)
            stats.append(result.summary.replicas)
        assert stats[0] == stats[1]


class TestSingleReplicaDisaggregation:
    @pytest.mark.parametrize("pools", [(0, 1), (1, 0), (0, 0)])
    def test_empty_pool_rejected_at_spec(self, pools):
        prefill, decode = pools
        with pytest.raises(ConfigError, match="at least one prefill"):
            DisaggregationSpec(
                prefill_replicas=prefill, decode_replicas=decode
            )

    @pytest.mark.parametrize("mode", ENGINES)
    def test_minimum_viable_disaggregation_is_one_plus_one(self, engine, mode):
        sim = CLUSTER_SIMULATORS[mode](
            engine,
            replicas=2,
            disaggregation=DisaggregationSpec(
                prefill_replicas=1, decode_replicas=1
            ),
                    )
        result = sim.run(BurstArrivals(bursts=((0.0, 6),), generate_tokens=16))
        assert result.summary.serve.completed == 6
        assert result.summary.transfers == 6

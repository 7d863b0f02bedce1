"""The serving simulator end to end: latency, energy, determinism."""

from __future__ import annotations

import json

import pytest

from repro.engine.inference import InferenceEngine, InferenceWorkload
from repro.errors import ConfigError
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer, activate
from repro.serve import (
    FixedArrivals,
    PoissonArrivals,
    ServingSimulator,
    SLOPolicy,
    TraceArrivals,
    percentile,
)
from repro.serve.cluster import ClusterSimulator
from repro.serve.result import summarize_completions
from repro.simcluster.clock import VirtualClock

pytestmark = pytest.mark.serve

ARRIVALS = PoissonArrivals(
    rate_per_s=10.0,
    requests=24,
    prompt_tokens=256,
    generate_tokens=32,
    length_spread=0.25,
    seed=0,
)


@pytest.fixture
def engine():
    return InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))


@pytest.fixture(autouse=True)
def fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


class TestRun:
    def test_all_requests_complete(self, engine):
        served = ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        s = served.summary
        assert s.offered == 24 and s.completed == 24 and s.rejected == 0
        assert len(served.records) == 24
        assert [r.index for r in served.records] == list(range(24))
        assert served.train.benchmark == "llm-serve-800M"

    def test_latency_invariants(self, engine):
        served = ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        for r in served.records:
            assert r.arrival_s <= r.admitted_s < r.first_token_s <= r.completed_s
            assert r.ttft_s >= r.queue_delay_s
            assert r.e2e_s >= r.ttft_s
        s = served.summary
        assert s.ttft.p50 <= s.ttft.p95 <= s.ttft.p99 <= s.ttft.max
        assert s.e2e.mean <= s.e2e.max

    def test_energy_attribution_bounded_by_run(self, engine):
        served = ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        attributed = sum(r.energy_wh for r in served.records)
        assert attributed > 0
        # Idle energy is deliberately unattributed, so the run-level Wh
        # bounds the per-request sum from above.
        assert attributed <= served.train.energy_per_device_wh * (1 + 1e-9)
        assert served.summary.tokens_per_wh > 0

    def test_result_row_extra_flattened(self, engine):
        served = ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        extra = served.train.extra
        for key in (
            "ttft_p99_s",
            "tpot_p50_s",
            "e2e_p95_s",
            "queue_delay_mean_s",
            "goodput_tokens_per_s",
            "energy_per_request_wh",
            "tokens_per_wh",
            "decode_steps",
            "batch_cap",
        ):
            assert key in extra, key
        assert "elapsed_s" not in extra  # already a TrainResult field

    def test_slo_splits_goodput_from_throughput(self, engine):
        tight = ServingSimulator(
            engine, batch_cap=8, slo=SLOPolicy(ttft_s=1e-9)
        ).run(ARRIVALS)
        assert tight.summary.slo_attainment == 0.0
        assert tight.summary.goodput_tokens_per_s == 0.0
        assert tight.summary.throughput_tokens_per_s > 0
        loose = ServingSimulator(
            engine, batch_cap=8, slo=SLOPolicy(ttft_s=60.0, e2e_s=600.0)
        ).run(ARRIVALS)
        assert loose.summary.slo_attainment == 1.0

    def test_tiny_queue_sheds_load(self, engine):
        burst = TraceArrivals(
            entries=tuple((0.0, 128, 16) for _ in range(8))
        )
        served = ServingSimulator(engine, batch_cap=1, queue_capacity=2).run(burst)
        assert served.summary.rejected > 0
        assert served.summary.completed + served.summary.rejected == 8
        assert len(served.rejected) == served.summary.rejected

    def test_impossible_request_raises_upfront(self, engine):
        huge = TraceArrivals(entries=((0.0, 4_000_000, 4_000_000),))
        with pytest.raises(ConfigError, match="KV cache"):
            ServingSimulator(engine, batch_cap=4).run(huge)

    def test_fixed_arrivals_match_static_serve_shape(self, engine):
        workload = InferenceWorkload(
            prompt_tokens=256, generate_tokens=32, batch_size=4
        )
        static = engine.serve(workload, requests=1)
        served = ServingSimulator(engine, batch_cap=4).run(
            FixedArrivals(requests=4, prompt_tokens=256, generate_tokens=32)
        )
        # Same decode work at the same batch size: elapsed times agree
        # up to the serial prefills the continuous path pays.
        decode_s = 32 * engine.decode_step_time_s(4)
        prefill_each = engine.prefill_time_s(
            InferenceWorkload(prompt_tokens=256, generate_tokens=32, batch_size=1)
        )
        assert served.train.elapsed_s == pytest.approx(
            decode_s + 4 * prefill_each, rel=1e-6
        )
        assert static.elapsed_s < served.train.elapsed_s * 1.5

    def test_metrics_recorded(self, engine):
        from repro.obs.metrics import get_metrics

        ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        snapshot = get_metrics().snapshot()
        assert {
            "serve_requests_completed_total",
            "serve_queue_depth",
            "serve_ttft_s",
            "serve_e2e_s",
        } <= set(snapshot)
        completed = snapshot["serve_requests_completed_total"]["series"]
        assert completed[0]["labels"] == {"system": "GH200"}
        assert completed[0]["value"] == 24


class TestDeterminism:
    def _trace_json(self, engine) -> tuple[str, str]:
        sink = InMemorySink()
        tracer = Tracer(clock=VirtualClock(), sinks=[sink])
        with activate(tracer):
            served = ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        trace = json.dumps(sink.records, sort_keys=True, separators=(",", ":"))
        return served.records_json(), trace

    def test_records_byte_identical(self, engine):
        a = ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        b = ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        assert a.records_json() == b.records_json()
        assert a.summary.to_dict() == b.summary.to_dict()

    def test_trace_byte_identical(self, engine):
        records_a, trace_a = self._trace_json(engine)
        records_b, trace_b = self._trace_json(engine)
        assert records_a == records_b
        assert trace_a == trace_b

    def test_request_spans_on_serve_track(self, engine):
        sink = InMemorySink()
        tracer = Tracer(clock=VirtualClock(), sinks=[sink])
        with activate(tracer):
            served = ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        spans = [
            r
            for r in sink.records
            if r.get("type") == "span" and r.get("name") == "serve/request"
        ]
        assert len(spans) == served.summary.completed
        assert all(s["track"] == "serve" for s in spans)
        by_index = {s["attrs"]["index"]: s for s in spans}
        for record in served.records:
            span = by_index[record.index]
            assert span["t0"] == pytest.approx(record.arrival_s)
            assert span["t1"] == pytest.approx(record.completed_s)

    def test_different_seed_different_records(self, engine):
        a = ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        other = PoissonArrivals(
            rate_per_s=10.0,
            requests=24,
            prompt_tokens=256,
            generate_tokens=32,
            length_spread=0.25,
            seed=1,
        )
        b = ServingSimulator(engine, batch_cap=8).run(other)
        assert a.records_json() != b.records_json()


class TestContinuousBatchingAdvantage:
    def test_beats_lockstep_batching_on_mixed_lengths(self, engine):
        """Evicting finished sequences frees slots a lock-step batch wastes."""
        mixed = TraceArrivals(
            entries=tuple(
                (0.0, 128, 8 if i % 2 else 64) for i in range(8)
            )
        )
        continuous = ServingSimulator(engine, batch_cap=4).run(mixed)
        # Lock-step equivalent: every batch member pays the longest
        # generation in the batch.
        lockstep_decode = 2 * 64 * engine.decode_step_time_s(4)
        continuous_decode = continuous.train.elapsed_s
        assert continuous_decode < lockstep_decode + 8 * engine.prefill_time_s(
            InferenceWorkload(prompt_tokens=128, batch_size=1)
        )


class _NoArrivals:
    """An arrival process that generates nothing."""

    def generate(self):
        return ()


class TestBoundaryValidation:
    """Bad serving input fails with a ConfigError before any run."""

    @pytest.mark.parametrize("simulator", [ServingSimulator, ClusterSimulator])
    def test_unknown_percentile_mode(self, engine, simulator):
        with pytest.raises(ConfigError, match="unknown percentile mode 'p3'"):
            simulator(engine, percentile_mode="p3")

    def test_batch_cap_below_one(self, engine):
        with pytest.raises(ConfigError, match="batch cap must be >= 1"):
            ServingSimulator(engine, batch_cap=0)

    def test_empty_stream(self, engine):
        with pytest.raises(ConfigError, match="no requests"):
            ServingSimulator(engine).run(_NoArrivals())

    @pytest.mark.parametrize(
        "values,q,match",
        [
            ((), 50.0, "empty sample"),
            ((1.0, 2.0), 0.0, "must be in"),
            ((1.0,), 101.0, "must be in"),
        ],
    )
    def test_percentile_domain(self, values, q, match):
        with pytest.raises(ConfigError, match=match):
            percentile(values, q)

    @pytest.mark.parametrize("bound", ["ttft_s", "e2e_s"])
    def test_slo_bounds_must_be_positive(self, bound):
        with pytest.raises(ConfigError, match=f"SLO {bound} must be positive"):
            SLOPolicy(**{bound: 0.0})

    def test_slo_e2e_bound_is_enforced(self):
        slo = SLOPolicy(e2e_s=1.0)
        assert slo.met_values(0.1, 1.0)
        assert not slo.met_values(0.1, 1.5)

    @pytest.mark.parametrize("mode", ["exact", "p2"])
    def test_no_completions_summarise_to_zeros(self, mode):
        summary, kept = summarize_completions(
            (),
            percentile_mode=mode,
            slo=SLOPolicy(),
            offered=3,
            rejected=3,
            elapsed_s=1.0,
        )
        assert (summary.completed, summary.rejected) == (0, 3)
        assert summary.ttft.p99 == summary.energy_per_request_wh == 0.0
        assert kept == (() if mode == "exact" else None)

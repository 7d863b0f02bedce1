"""Tests for the inference benchmark engine (future-work extension)."""

import pytest

from repro.engine.inference import (
    RUNTIME_RESERVE_BYTES,
    InferenceEngine,
    InferenceWorkload,
)
from repro.errors import ConfigError, OutOfMemoryError
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset


@pytest.fixture
def engine():
    return InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))


class TestWorkload:
    def test_defaults(self):
        w = InferenceWorkload()
        assert w.prompt_tokens == 512 and w.generate_tokens == 256

    def test_validation(self):
        with pytest.raises(ConfigError):
            InferenceWorkload(prompt_tokens=0)
        with pytest.raises(ConfigError):
            InferenceWorkload(batch_size=0)


class TestRoofline:
    def test_decode_bandwidth_bound_at_batch_one(self, engine):
        # At batch 1 the step time equals the weight-streaming time.
        t1 = engine.decode_step_time_s(1)
        t2 = engine.decode_step_time_s(2)
        assert t1 == pytest.approx(t2)  # still bandwidth-bound

    def test_decode_compute_bound_at_large_batch(self, engine):
        sat = engine.saturation_batch_size()
        large = int(sat * 4)
        assert engine.decode_step_time_s(large) > engine.decode_step_time_s(1)

    def test_throughput_rises_then_saturates_per_token(self, engine):
        rates = [b / engine.decode_step_time_s(b) for b in (1, 4, 16, 64, 256)]
        assert rates == sorted(rates)

    def test_gh200_memory_bandwidth_advantage(self):
        # 4 TB/s vs 2 TB/s: GH200 decodes ~2x faster at batch 1.
        model = get_gpt_preset("800M")
        gh = InferenceEngine(get_system("GH200"), model)
        h100 = InferenceEngine(get_system("H100"), model)
        ratio = h100.decode_step_time_s(1) / gh.decode_step_time_s(1)
        assert 1.6 < ratio < 2.2

    def test_prefill_scales_with_prompt(self, engine):
        short = engine.prefill_time_s(InferenceWorkload(prompt_tokens=256))
        long = engine.prefill_time_s(InferenceWorkload(prompt_tokens=1024))
        assert long == pytest.approx(4 * short)


class TestMemory:
    def test_kv_cache_scales_with_batch_and_context(self, engine):
        small = engine.kv_cache_bytes(InferenceWorkload(batch_size=1))
        big = engine.kv_cache_bytes(InferenceWorkload(batch_size=8))
        assert big == pytest.approx(8 * small)

    def test_max_batch_positive_for_800m(self, engine):
        assert engine.max_batch_size(InferenceWorkload()) > 32

    def test_oversized_batch_raises(self, engine):
        workload = InferenceWorkload(batch_size=10**6)
        with pytest.raises(OutOfMemoryError):
            engine.check_memory(workload)

    def test_max_batch_respects_check(self, engine):
        w = InferenceWorkload()
        limit = engine.max_batch_size(w)
        engine.check_memory(InferenceWorkload(batch_size=limit))
        with pytest.raises(OutOfMemoryError):
            engine.check_memory(InferenceWorkload(batch_size=limit * 2))


class TestMemoryBoundaries:
    """The two memory paths share one budget and agree at the boundary."""

    def test_kv_budget_is_memory_minus_weights_and_reserve(self, engine):
        expected = (
            engine.node.device_memory_bytes
            - engine.model.weight_bytes()
            - RUNTIME_RESERVE_BYTES
        )
        assert engine.kv_budget_bytes() == pytest.approx(expected)

    def test_max_batch_is_exact_fit(self, engine):
        w = InferenceWorkload()
        per_seq = (
            w.prompt_tokens + w.generate_tokens
        ) * engine.model.kv_cache_bytes_per_token()
        assert engine.max_batch_size(w) == int(engine.kv_budget_bytes() // per_seq)

    def test_boundary_batch_agreement(self, engine):
        """check_memory passes at the planner's limit, fails one past it."""
        w = InferenceWorkload()
        limit = engine.max_batch_size(w)
        engine.check_memory(InferenceWorkload(batch_size=limit))
        with pytest.raises(OutOfMemoryError):
            engine.check_memory(InferenceWorkload(batch_size=limit + 1))

    def test_negative_free_memory_yields_zero_batch(self):
        """Weights alone past device memory: budget negative, batch 0."""
        engine = InferenceEngine(get_system("A100"), get_gpt_preset("175B"))
        assert engine.kv_budget_bytes() < 0
        assert engine.max_batch_size(InferenceWorkload()) == 0

    def test_oom_error_carries_sizing_fields(self, engine):
        with pytest.raises(OutOfMemoryError) as exc:
            engine.check_memory(InferenceWorkload(batch_size=10**6))
        err = exc.value
        assert err.required_bytes > err.capacity_bytes
        assert err.capacity_bytes == engine.node.device_memory_bytes
        kv = engine.kv_cache_bytes(InferenceWorkload(batch_size=10**6))
        expected = int(
            engine.model.weight_bytes() + kv + RUNTIME_RESERVE_BYTES
        )
        assert err.required_bytes == expected


class TestServe:
    def test_serve_result(self, engine):
        result = engine.serve(InferenceWorkload(batch_size=8), requests=3)
        assert result.benchmark == "llm-infer-800M"
        assert result.iterations == 3
        assert result.throughput > 0
        assert result.extra["time_to_first_token_s"] > 0
        assert result.extra["tokens_per_wh"] > 0

    def test_larger_batch_more_efficient(self, engine):
        small = engine.serve(InferenceWorkload(batch_size=1), requests=2)
        large = engine.serve(InferenceWorkload(batch_size=32), requests=2)
        assert large.extra["tokens_per_wh"] > small.extra["tokens_per_wh"]

    def test_rejects_ipu(self):
        with pytest.raises(ConfigError):
            InferenceEngine(get_system("GC200"), get_gpt_preset("117M"))

    def test_requests_validated(self, engine):
        with pytest.raises(ConfigError):
            engine.serve(InferenceWorkload(), requests=0)

"""Tests for the synthetic microbenchmarks."""

import pytest

from repro.engine.microbench import (
    allreduce_busbw_gbs,
    gemm_tflops,
    stream_triad_gbs,
)
from repro.errors import ConfigError
from repro.hardware.systems import get_system


class TestGEMM:
    def test_large_gemm_approaches_peak_fraction(self):
        node = get_system("A100")
        result = gemm_tflops(node, 16384)
        assert 0.7 * 312 < result.value < 0.85 * 312

    def test_small_gemm_is_inefficient(self):
        node = get_system("A100")
        small = gemm_tflops(node, 128)
        large = gemm_tflops(node, 8192)
        assert small.value < 0.3 * large.value

    def test_never_exceeds_peak(self):
        for tag in ("A100", "H100", "WAIH100", "GH200", "MI250", "GC200"):
            node = get_system(tag)
            for dim in (256, 2048, 16384):
                assert gemm_tflops(node, dim).value * 1e12 <= node.device_peak_flops

    def test_generation_ordering(self):
        a100 = gemm_tflops(get_system("A100"), 8192).value
        h100 = gemm_tflops(get_system("WAIH100"), 8192).value
        assert h100 > 2 * a100

    def test_validation(self):
        with pytest.raises(ConfigError):
            gemm_tflops(get_system("A100"), 0)


class TestStream:
    def test_large_arrays_hit_bandwidth_fraction(self):
        node = get_system("GH200")
        result = stream_triad_gbs(node, 10**9)
        assert result.value == pytest.approx(4000 * 0.82, rel=0.05)

    def test_small_arrays_latency_bound(self):
        node = get_system("A100")
        small = stream_triad_gbs(node, 10**4)
        large = stream_triad_gbs(node, 10**9)
        assert small.value < 0.05 * large.value

    def test_gh200_has_best_stream(self):
        values = {
            tag: stream_triad_gbs(get_system(tag), 10**9).value
            for tag in ("A100", "H100", "WAIH100", "GH200", "MI250")
        }
        assert max(values, key=values.get) == "GH200"

    def test_validation(self):
        with pytest.raises(ConfigError):
            stream_triad_gbs(get_system("A100"), 0)


class TestAllreduceBusbw:
    def test_busbw_below_link_rate(self):
        node = get_system("JEDI")
        result = allreduce_busbw_gbs(node, 256 * 1024 * 1024)
        assert result.value < node.accel_accel_link.unidirectional_bandwidth / 1e9

    def test_nvlink_beats_pcie_class_fabrics(self):
        nv = allreduce_busbw_gbs(get_system("JEDI"), 10**8).value
        ipu = allreduce_busbw_gbs(get_system("GC200"), 10**8).value
        assert nv > ipu

    def test_small_messages_latency_bound(self):
        node = get_system("A100")
        small = allreduce_busbw_gbs(node, 1024).value
        large = allreduce_busbw_gbs(node, 10**9).value
        assert small < 0.1 * large

    def test_needs_two_ranks(self):
        with pytest.raises(ConfigError, match="2 ranks"):
            allreduce_busbw_gbs(get_system("GH200"), 10**6)

    def test_rank_count_capped(self):
        with pytest.raises(ConfigError):
            allreduce_busbw_gbs(get_system("A100"), 10**6, ranks=8)


class TestRoofline:
    def test_calibrated_engines_stay_below_roofline(self):
        # The application benchmarks must never exceed the machine.
        from repro.engine.perf import LLMStepModel
        from repro.models.parallelism import ParallelLayout
        from repro.models.transformer import get_gpt_preset

        model = get_gpt_preset("800M")
        for tag in ("A100", "H100", "WAIH100", "GH200", "JEDI"):
            node = get_system(tag)
            step_model = LLMStepModel(node, model, ParallelLayout(dp=1))
            rate = step_model.tokens_per_second(256)
            achieved = rate * model.flops_per_token_train
            assert achieved <= node.device_peak_flops, tag

    def test_describe(self):
        result = gemm_tflops(get_system("A100"), 4096)
        assert "gemm" in result.describe()

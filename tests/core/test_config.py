"""Tests for the benchmark configurations."""

import pytest

from repro.core.config import AMDVariant, LLMBenchmarkConfig, ResNetBenchmarkConfig
from repro.errors import ConfigError
from repro.models.parallelism import ParallelLayout


class TestLLMConfig:
    def test_defaults_mirror_paper(self):
        cfg = LLMBenchmarkConfig(system="A100")
        assert cfg.model_size == "800M"
        assert cfg.micro_batch_size == 4

    def test_device_count_full_node(self):
        assert LLMBenchmarkConfig(system="A100").device_count() == 4
        assert LLMBenchmarkConfig(system="GH200").device_count() == 1
        assert LLMBenchmarkConfig(system="JEDI").device_count() == 4

    def test_amd_variants(self):
        # §IV-A: GCD variant = 4 GCDs (DP 4), GPU variant = 8 GCDs (DP 8).
        gcd = LLMBenchmarkConfig(system="MI250", amd_variant=AMDVariant.GCD)
        gpu = LLMBenchmarkConfig(system="MI250", amd_variant=AMDVariant.GPU)
        assert gcd.device_count() == 4
        assert gpu.device_count() == 8

    def test_800m_layout_is_pure_dp(self):
        assert LLMBenchmarkConfig(system="A100").layout() == ParallelLayout(dp=4)

    def test_13b_layout_uses_model_parallelism(self):
        cfg = LLMBenchmarkConfig(system="JEDI", model_size="13B")
        layout = cfg.layout()
        assert layout.tp * layout.pp > 1

    def test_ipu_has_no_gpu_layout(self):
        with pytest.raises(ConfigError, match="pipeline"):
            LLMBenchmarkConfig(system="GC200", model_size="117M").layout()

    def test_validation(self):
        with pytest.raises(ConfigError):
            LLMBenchmarkConfig(system="A100", model_size="7B")
        with pytest.raises(ConfigError):
            LLMBenchmarkConfig(system="A100", global_batch_size=0)
        with pytest.raises(ConfigError):
            LLMBenchmarkConfig(system="A100", exit_duration_s=0)


class TestResNetConfig:
    def test_defaults(self):
        cfg = ResNetBenchmarkConfig(system="A100")
        assert cfg.model == "resnet50"
        assert cfg.iterations == 100

    def test_amd_single_device_variants(self):
        # §IV-B: GCD = 1 die (no parallelism), GPU = MCM (2 dies, DP 2).
        gcd = ResNetBenchmarkConfig(system="MI250", amd_variant=AMDVariant.GCD)
        gpu = ResNetBenchmarkConfig(system="MI250", amd_variant=AMDVariant.GPU)
        assert gcd.effective_devices() == 1
        assert gpu.effective_devices() == 2

    def test_variant_ignored_on_nvidia(self):
        cfg = ResNetBenchmarkConfig(system="A100", amd_variant=AMDVariant.GPU)
        assert cfg.effective_devices() == 1

    def test_explicit_multi_device_passthrough(self):
        cfg = ResNetBenchmarkConfig(system="MI250", devices=8)
        assert cfg.effective_devices() == 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            ResNetBenchmarkConfig(system="A100", model="yolo")
        with pytest.raises(ConfigError):
            ResNetBenchmarkConfig(system="A100", iterations=0)

"""Tests for optimizer-state and activation memory accounting."""

import pytest

from repro.errors import ConfigError
from repro.models.activation import (
    RecomputeMode,
    transformer_activation_bytes,
    transformer_activation_bytes_per_layer,
)
from repro.models.optimizer import (
    OptimizerConfig,
    gradient_bytes,
    optimizer_bytes_per_param,
    optimizer_state_bytes,
)
from repro.models.precision import DEFAULT_POLICY, DType, MixedPrecisionPolicy
from repro.models.transformer import get_gpt_preset


class TestOptimizerBytes:
    def test_unsharded_adam_is_16_bytes_per_param(self):
        opt = OptimizerConfig(distributed=False)
        assert optimizer_bytes_per_param(opt, dp_size=1) == pytest.approx(16.0)

    def test_distributed_optimizer_shards_master_and_moments(self):
        # Megatron distributed optimizer: 4 + 12/dp.
        opt = OptimizerConfig(distributed=True)
        assert optimizer_bytes_per_param(opt, dp_size=4) == pytest.approx(4 + 12 / 4)
        assert optimizer_bytes_per_param(opt, dp_size=1) == pytest.approx(16.0)

    def test_sharding_monotone_in_dp(self):
        opt = OptimizerConfig(distributed=True)
        values = [optimizer_bytes_per_param(opt, dp) for dp in (1, 2, 4, 8)]
        assert values == sorted(values, reverse=True)

    def test_fp32_training_has_no_master_copy(self):
        opt = OptimizerConfig(distributed=False)
        fp32 = MixedPrecisionPolicy(
            compute=DType.FP32, params=DType.FP32, grads=DType.FP32
        )
        # fp32: 4 (params) + 4 (grads) + 8 (two moments) = 16.
        assert optimizer_bytes_per_param(opt, 1, fp32) == pytest.approx(16.0)

    def test_total_state_bytes(self):
        opt = OptimizerConfig(distributed=False)
        assert optimizer_state_bytes(1000, opt) == pytest.approx(16000)

    def test_gradient_bytes_compute_precision(self):
        assert gradient_bytes(1000) == 2000

    def test_validation(self):
        with pytest.raises(ConfigError):
            optimizer_bytes_per_param(OptimizerConfig(), dp_size=0)
        with pytest.raises(ConfigError):
            optimizer_state_bytes(0, OptimizerConfig())
        with pytest.raises(ConfigError):
            gradient_bytes(-1)
        with pytest.raises(ConfigError):
            OptimizerConfig(moments=-1)


class TestActivationBytes:
    @pytest.fixture
    def cfg(self):
        return get_gpt_preset("117M")

    def test_flash_attention_removes_quadratic_term(self, cfg):
        from dataclasses import replace

        vanilla = replace(cfg, flash_attention=False)
        s, b, h, a = cfg.seq_length, 4, cfg.hidden, cfg.heads
        none_mode = transformer_activation_bytes_per_layer(
            vanilla, b, RecomputeMode.NONE
        )
        flash = transformer_activation_bytes_per_layer(cfg, b, RecomputeMode.NONE)
        assert none_mode == pytest.approx(s * b * h * (34 + 5 * a * s / h))
        assert flash == pytest.approx(34 * s * b * h)

    def test_full_recompute_keeps_only_inputs(self, cfg):
        full = transformer_activation_bytes_per_layer(cfg, 4, RecomputeMode.FULL)
        assert full == pytest.approx(2 * cfg.seq_length * 4 * cfg.hidden)

    def test_ordering_full_lt_selective_lt_none(self, cfg):
        from dataclasses import replace

        vanilla = replace(cfg, flash_attention=False)
        full = transformer_activation_bytes_per_layer(vanilla, 4, RecomputeMode.FULL)
        sel = transformer_activation_bytes_per_layer(vanilla, 4, RecomputeMode.SELECTIVE)
        none = transformer_activation_bytes_per_layer(vanilla, 4, RecomputeMode.NONE)
        assert full < sel < none

    def test_linear_in_micro_batch(self, cfg):
        one = transformer_activation_bytes_per_layer(cfg, 1)
        four = transformer_activation_bytes_per_layer(cfg, 4)
        assert four == pytest.approx(4 * one)

    def test_total_scales_with_resident_layers(self, cfg):
        half = transformer_activation_bytes(cfg, 4, layers_resident=6)
        full = transformer_activation_bytes(cfg, 4, layers_resident=12)
        assert full > half

    def test_pipeline_in_flight_multiplier(self, cfg):
        one = transformer_activation_bytes(cfg, 4, in_flight_micro_batches=1)
        four = transformer_activation_bytes(cfg, 4, in_flight_micro_batches=4)
        assert four > 3 * one

    def test_validation(self, cfg):
        with pytest.raises(ConfigError):
            transformer_activation_bytes_per_layer(cfg, 0)
        with pytest.raises(ConfigError):
            transformer_activation_bytes(cfg, 4, layers_resident=0)
        with pytest.raises(ConfigError):
            transformer_activation_bytes(cfg, 4, in_flight_micro_batches=0)

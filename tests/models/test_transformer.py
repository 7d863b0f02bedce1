"""Tests for the GPT architecture model."""

import pytest

from repro.errors import ConfigError
from repro.models.transformer import GPT_PRESETS, GPTConfig, get_gpt_preset


class TestPresets:
    def test_suite_model_sizes_present(self):
        # §III-A1: 117M on Graphcore, 800M on NVIDIA/AMD, 13B/175B
        # configurations provided.
        assert set(GPT_PRESETS) == {"117M", "800M", "13B", "175B"}

    def test_parameter_counts_match_names(self):
        # Within 15 % of the nominal size (names are marketing-rounded).
        for name, nominal in [("117M", 117e6), ("800M", 800e6), ("13B", 13e9), ("175B", 175e9)]:
            params = get_gpt_preset(name).parameters
            assert abs(params / nominal - 1) < 0.15, (name, params)

    def test_117m_is_gpt2_small(self):
        cfg = get_gpt_preset("117M")
        assert (cfg.layers, cfg.hidden, cfg.heads) == (12, 768, 12)

    def test_175b_is_gpt3_layout(self):
        cfg = get_gpt_preset("175B")
        assert (cfg.layers, cfg.hidden, cfg.heads) == (96, 12288, 96)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="800M"):
            get_gpt_preset("1T")

    def test_presets_use_benchmark_features(self):
        # §III-A1: flash attention and rotary embeddings enabled.
        for cfg in GPT_PRESETS.values():
            assert cfg.flash_attention
            assert cfg.rotary_embeddings


class TestParameterAccounting:
    def test_layer_parameters_formula(self):
        cfg = get_gpt_preset("800M")
        h = cfg.hidden
        assert cfg.layer_parameters == 12 * h * h + 13 * h

    def test_rotary_embeddings_have_no_position_table(self):
        rotary = GPTConfig("x", layers=2, hidden=64, heads=2, rotary_embeddings=True)
        learned = GPTConfig("y", layers=2, hidden=64, heads=2, rotary_embeddings=False)
        assert learned.parameters - rotary.parameters == learned.seq_length * 64

    def test_parameters_scale_quadratically_with_hidden(self):
        small = GPTConfig("s", layers=4, hidden=256, heads=4, vocab_size=1000)
        big = GPTConfig("b", layers=4, hidden=512, heads=4, vocab_size=1000)
        stack_small = small.layers * small.layer_parameters
        stack_big = big.layers * big.layer_parameters
        assert stack_big / stack_small == pytest.approx(4.0, rel=0.02)


class TestFlopAccounting:
    def test_forward_flops_2n_plus_attention(self):
        cfg = get_gpt_preset("800M")
        expected = 2.0 * cfg.parameters + 4.0 * cfg.layers * cfg.seq_length * cfg.hidden
        assert cfg.flops_per_token_forward == pytest.approx(expected)

    def test_training_flops_3x_forward(self):
        cfg = get_gpt_preset("117M")
        assert cfg.flops_per_token_train == pytest.approx(3 * cfg.flops_per_token_forward)


class TestMemoryHelpers:
    def test_weight_bytes_fp16(self):
        cfg = get_gpt_preset("117M")
        assert cfg.weight_bytes() == cfg.parameters * 2

    def test_kv_cache_per_token(self):
        cfg = get_gpt_preset("117M")
        assert cfg.kv_cache_bytes_per_token() == 2 * 12 * 768 * 2


class TestValidation:
    def test_hidden_must_divide_heads(self):
        with pytest.raises(ConfigError, match="divisible"):
            GPTConfig("bad", layers=2, hidden=100, heads=3)

    def test_positive_dimensions(self):
        with pytest.raises(ConfigError):
            GPTConfig("bad", layers=0, hidden=64, heads=2)

    def test_positive_sequence(self):
        with pytest.raises(ConfigError):
            GPTConfig("bad", layers=2, hidden=64, heads=2, seq_length=0)

    def test_describe(self):
        assert "36L" in get_gpt_preset("800M").describe()

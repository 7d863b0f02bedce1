"""Tests for the power-cap / DVFS frequency model."""

import math

import pytest

from repro.errors import ConfigError
from repro.hardware.systems import get_system
from repro.power.dvfs import (
    DEFAULT_MIN_CLOCK_FRACTION,
    FrequencyModel,
    apply_power_cap,
    frequency_model_for_device,
    frequency_model_for_node,
)


@pytest.fixture(scope="module")
def fm():
    return FrequencyModel(idle_watts=60.0, max_watts=300.0)


class TestFrequencyModel:
    def test_uncapped_at_max_watts(self, fm):
        assert fm.clock_fraction(300.0) == 1.0
        assert fm.clock_fraction(500.0) == 1.0

    def test_monotone_non_decreasing_in_cap(self, fm):
        caps = [80 + 10 * i for i in range(25)]
        fractions = [fm.clock_fraction(c) for c in caps]
        assert fractions == sorted(fractions)

    def test_saturates_at_floor_clock(self, fm):
        assert fm.clock_fraction(61.0) == DEFAULT_MIN_CLOCK_FRACTION
        assert fm.clock_fraction(10.0) == DEFAULT_MIN_CLOCK_FRACTION

    def test_power_at_clock_inverts_clock_fraction(self, fm):
        for cap in (150.0, 200.0, 250.0):
            f = fm.clock_fraction(cap)
            assert fm.power_at_clock(f) == pytest.approx(cap)

    def test_bandwidth_degrades_slower_than_compute(self, fm):
        cap = 150.0
        assert fm.bandwidth_fraction(cap) > fm.compute_fraction(cap)
        assert fm.bandwidth_fraction(cap) == pytest.approx(
            fm.clock_fraction(cap) ** fm.bandwidth_exponent
        )

    def test_min_cap_watts_is_floor_clock_draw(self, fm):
        assert fm.min_cap_watts == pytest.approx(
            fm.power_at_clock(fm.min_clock_fraction)
        )
        # Caps below the floor draw are unenforceable: the fraction pins.
        assert fm.clock_fraction(fm.min_cap_watts) == pytest.approx(
            fm.min_clock_fraction, abs=1e-9
        )

    def test_rejects_nonpositive_cap(self, fm):
        with pytest.raises(ConfigError):
            fm.clock_fraction(0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FrequencyModel(idle_watts=100, max_watts=50)
        with pytest.raises(ConfigError):
            FrequencyModel(idle_watts=0, max_watts=100, alpha=1.0)
        with pytest.raises(ConfigError):
            FrequencyModel(idle_watts=0, max_watts=100, bandwidth_exponent=1.5)
        with pytest.raises(ConfigError):
            FrequencyModel(idle_watts=0, max_watts=100, min_clock_fraction=0.0)


class TestFrequencyModelForDevice:
    def test_brackets_match_power_model(self):
        node = get_system("H100")
        fm = frequency_model_for_node(node)
        assert 0 < fm.idle_watts < fm.max_watts
        assert fm.max_watts <= node.device_tdp_watts

    def test_builds_from_accelerator(self):
        node = get_system("MI250")
        fm = frequency_model_for_device(node.accelerator)
        assert fm.max_watts > fm.idle_watts


class TestApplyPowerCap:
    def test_none_is_identity(self):
        node = get_system("H100")
        assert apply_power_cap(node, None) is node

    def test_derates_flops_and_bandwidth(self):
        node = get_system("H100")
        capped = apply_power_cap(node, 0.6 * node.device_tdp_watts)
        assert capped.accelerator.peak_fp16_flops < node.accelerator.peak_fp16_flops
        assert capped.accelerator.memory_bandwidth < node.accelerator.memory_bandwidth
        # Bandwidth is derated less aggressively than compute.
        flop_frac = (
            capped.accelerator.peak_fp16_flops / node.accelerator.peak_fp16_flops
        )
        bw_frac = (
            capped.accelerator.memory_bandwidth / node.accelerator.memory_bandwidth
        )
        assert bw_frac > flop_frac

    def test_records_cap_on_node(self):
        node = get_system("H100")
        capped = apply_power_cap(node, 250.0)
        assert capped.power_cap_watts == 250.0
        assert "Power cap/device" in capped.describe()

    def test_cap_above_tdp_keeps_stock_clocks(self):
        node = get_system("H100")
        capped = apply_power_cap(node, node.device_tdp_watts * 2)
        assert (
            capped.accelerator.peak_fp16_flops == node.accelerator.peak_fp16_flops
        )
        # The recorded cap clamps to TDP: the device cannot draw more.
        assert capped.power_cap_watts == node.device_tdp_watts

    def test_refuses_cap_below_floor_clock_draw(self):
        node = get_system("H100")
        min_cap = frequency_model_for_node(node).min_cap_watts
        with pytest.raises(ConfigError, match="minimum enforceable"):
            apply_power_cap(node, min_cap * 0.5)

    def test_refuses_double_capping(self):
        node = apply_power_cap(get_system("H100"), 250.0)
        with pytest.raises(ConfigError, match="already carries"):
            apply_power_cap(node, 200.0)

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="must be positive"):
            apply_power_cap(get_system("H100"), -5.0)


class TestCappedNodeThroughput:
    def test_capped_training_is_slower_but_more_efficient(self):
        from repro.core.config import LLMBenchmarkConfig
        from repro.core.llm_training import run_llm_benchmark

        base = LLMBenchmarkConfig(
            system="H100",
            global_batch_size=128,
            exit_duration_s=10.0,
            synthetic_data=True,
        )
        stock = run_llm_benchmark(base)
        tdp = get_system("H100").device_tdp_watts
        capped_cfg = LLMBenchmarkConfig(
            system="H100",
            global_batch_size=128,
            exit_duration_s=10.0,
            synthetic_data=True,
            power_cap_watts=0.7 * tdp,
        )
        capped = run_llm_benchmark(capped_cfg)
        assert capped.throughput < stock.throughput
        assert capped.mean_power_per_device_w < stock.mean_power_per_device_w
        assert capped.efficiency_per_wh > stock.efficiency_per_wh

    def test_config_rejects_negative_cap(self):
        from repro.core.config import LLMBenchmarkConfig

        with pytest.raises(ConfigError):
            LLMBenchmarkConfig(system="H100", power_cap_watts=-1.0)


class TestNodeSpecCapField:
    def test_rejects_nonpositive_cap(self):
        import dataclasses

        from repro.errors import HardwareError

        node = get_system("H100")
        with pytest.raises(HardwareError):
            dataclasses.replace(node, power_cap_watts=0.0)

    def test_uncapped_effective_power_is_tdp(self):
        node = get_system("H100")
        assert node.power_cap_watts is None

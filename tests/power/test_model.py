"""Tests for the analytic power model."""

import pytest

from repro.hardware.accelerator import get_accelerator
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.power.dvfs import apply_power_cap
from repro.power.model import PowerModel, power_model_for_device, power_model_for_node
from repro.power.sensors import DeviceRegistry


class TestPowerModel:
    def test_idle_at_zero_utilisation(self):
        m = PowerModel(idle_watts=50, max_watts=300)
        assert m.power(0.0) == 50

    def test_max_at_full_utilisation(self):
        m = PowerModel(idle_watts=50, max_watts=300)
        assert m.power(1.0) == pytest.approx(300)

    def test_monotone_in_utilisation(self):
        m = PowerModel(idle_watts=50, max_watts=300)
        samples = [m.power(u / 10) for u in range(11)]
        assert samples == sorted(samples)

    def test_clamps_out_of_range_utilisation(self):
        m = PowerModel(idle_watts=50, max_watts=300)
        assert m.power(-0.5) == m.power(0.0)
        assert m.power(2.0) == m.power(1.0)

    def test_concavity_gamma_below_one(self):
        # gamma < 1: half utilisation draws more than half the dynamic range.
        m = PowerModel(idle_watts=0, max_watts=100, gamma=0.9)
        assert m.power(0.5) > 50

    def test_energy_is_power_times_time(self):
        m = PowerModel(idle_watts=50, max_watts=300)
        assert m.energy(0.7, 10.0) == pytest.approx(m.power(0.7) * 10.0)

    def test_energy_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            PowerModel(10, 20).energy(0.5, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(idle_watts=-1, max_watts=10)
        with pytest.raises(ValueError):
            PowerModel(idle_watts=100, max_watts=50)
        with pytest.raises(ValueError):
            PowerModel(idle_watts=1, max_watts=10, gamma=0)


class TestCalibratedModels:
    def test_a100_idle_fraction(self):
        m = power_model_for_device(get_accelerator("A100-SXM4"))
        assert m.idle_watts == pytest.approx(0.18 * 400)

    def test_pcie_card_runs_at_cap(self):
        # H100-PCIe max power is essentially its 350 W TDP.
        m = power_model_for_device(get_accelerator("H100-PCIe"))
        assert m.max_watts == pytest.approx(0.98 * 350)

    def test_mi250_split_per_gcd(self):
        m = power_model_for_device(get_accelerator("MI250"))
        # per logical device: half the MCM TDP.
        assert m.max_watts == pytest.approx(560 / 2 * 0.80)

    def test_package_tdp_override(self):
        spec = get_accelerator("GH200-H100")
        m680 = power_model_for_device(spec, package_tdp_watts=680)
        m700 = power_model_for_device(spec, package_tdp_watts=700)
        assert m680.max_watts < m700.max_watts

    def test_host_share_raises_both_ends(self):
        spec = get_accelerator("GH200-H100")
        plain = power_model_for_device(spec)
        shared = power_model_for_device(spec, host_share_watts=75)
        assert shared.max_watts == pytest.approx(plain.max_watts + 75)
        assert shared.idle_watts > plain.idle_watts

    def test_max_never_exceeds_package_tdp_plus_host(self):
        for name in ("A100-SXM4", "H100-PCIe", "H100-SXM5", "MI250", "GC200"):
            spec = get_accelerator(name)
            m = power_model_for_device(spec)
            assert m.max_watts <= spec.tdp_watts / spec.logical_devices


class TestNodeModel:
    """``power_model_for_node`` is the model every device of a node gets."""

    @staticmethod
    def spelled_out(node):
        # The per-node rule: superchips carry 30 % of the Grace TDP per
        # logical device as host share; a capped node saturates at its cap.
        host_share = 0.0
        if node.accelerator.form_factor == "superchip":
            host_share = node.cpu.tdp_watts * 0.3 / node.accelerator.logical_devices
        return power_model_for_device(
            node.accelerator,
            package_tdp_watts=node.package_tdp_watts,
            host_share_watts=host_share,
            cap_watts=node.power_cap_watts,
        )

    @pytest.mark.parametrize(
        "node",
        [pytest.param(get_system(tag), id=tag) for tag in SYSTEM_TAGS]
        + [pytest.param(apply_power_cap(get_system("JEDI"), 450.0), id="JEDI-450W")],
    )
    def test_equals_every_registry_device(self, node):
        model = power_model_for_node(node)
        assert model == self.spelled_out(node)
        devices = list(DeviceRegistry.for_node(node))
        assert len(devices) == node.logical_devices_per_node
        assert all(dev.model == model for dev in devices)

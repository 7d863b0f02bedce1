"""Tests for simulated device sensors."""

import pytest

from repro.errors import MeasurementError
from repro.hardware.accelerator import Vendor, get_accelerator
from repro.power.sensors import DeviceRegistry, SimulatedDevice
from repro.simcluster.clock import VirtualClock


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def device(clock):
    return SimulatedDevice(0, get_accelerator("A100-SXM4"), clock=clock)


class TestSimulatedDevice:
    def test_idle_power_at_start(self, device):
        reading = device.read()
        assert reading.power_w == pytest.approx(device.model.power(0.0))
        assert reading.energy_j == 0.0

    def test_energy_accrues_with_virtual_time(self, device, clock):
        device.set_utilisation(0.5)
        clock.advance(10.0)
        reading = device.read()
        assert reading.energy_j == pytest.approx(device.model.power(0.5) * 10.0)

    def test_energy_exact_across_utilisation_changes(self, device, clock):
        device.set_utilisation(1.0)
        clock.advance(5.0)
        device.set_utilisation(0.0)
        clock.advance(5.0)
        expected = device.model.power(1.0) * 5 + device.model.power(0.0) * 5
        assert device.read_energy_j() == pytest.approx(expected)

    def test_utilisation_validation(self, device):
        with pytest.raises(ValueError):
            device.set_utilisation(1.1)
        with pytest.raises(ValueError):
            device.set_utilisation_at([0.5, -0.1], [1.0, 2.0])

    def test_set_utilisation_at_equals_one_call_per_instant(self, clock):
        spec = get_accelerator("A100-SXM4")
        stepped = SimulatedDevice(0, spec, clock=clock)
        jumped = SimulatedDevice(1, spec, clock=clock)
        calls = [
            # Set before the call: 0.3, new to the device.  Alternating
            # utilisations, and one instant given twice (dt = 0).
            (0.3, [0.6, 0.25, 0.6, 0.25, 0.9, 0.6, 0.25],
             [0.37, 0.11, 0.37, 0.0, 0.37, 0.11, 0.37]),
            # Set before the call: 0.6, which the first call kept.  A
            # call of one instant.
            (0.6, [0.3], [0.29]),
        ]
        for before, utilisations, advances in calls:
            clock.advance(0.13)
            stepped.set_utilisation(before)
            jumped.set_utilisation(before)
            times = []
            for utilisation, dt in zip(utilisations, advances):
                clock.advance(dt)
                times.append(clock.now())
                stepped.set_utilisation(utilisation)
            jumped.set_utilisation_at(utilisations, times)
            assert jumped.utilisation() == utilisations[-1]
        clock.advance(0.37)
        assert jumped.read_energy_j() == stepped.read_energy_j()

    def test_failure_injection(self, device):
        device.fail()
        with pytest.raises(MeasurementError):
            device.read()
        device.repair()
        device.read()  # works again

    def test_noise_is_reproducible(self, clock):
        spec = get_accelerator("A100-SXM4")
        d1 = SimulatedDevice(0, spec, clock=clock, noise_fraction=0.02, seed=7)
        d2 = SimulatedDevice(0, spec, clock=clock, noise_fraction=0.02, seed=7)
        assert d1.read_power_w() == d2.read_power_w()

    def test_noise_perturbs_power(self, clock):
        spec = get_accelerator("A100-SXM4")
        noisy = SimulatedDevice(0, spec, clock=clock, noise_fraction=0.05, seed=3)
        clean = SimulatedDevice(1, spec, clock=clock, noise_fraction=0.0)
        reads = {round(noisy.read_power_w(), 6) for _ in range(5)}
        assert len(reads) > 1  # jitters
        assert clean.read_power_w() == pytest.approx(clean.model.power(0.0))

    def test_name_includes_spec_and_index(self, device):
        assert device.name == "A100-SXM4 #0"


class TestDeviceRegistry:
    def test_for_node_enumerates_logical_devices(self, clock):
        from repro.hardware.systems import get_system

        reg = DeviceRegistry.for_node(get_system("MI250"), clock=clock)
        assert len(reg) == 8  # 4 MCMs x 2 GCDs

    def test_by_vendor_filters(self, clock):
        from repro.hardware.systems import get_system

        reg = DeviceRegistry.for_node(get_system("A100"), clock=clock)
        assert len(reg.by_vendor(Vendor.NVIDIA)) == 4
        assert reg.by_vendor(Vendor.AMD) == []

    def test_duplicate_index_rejected(self, clock):
        reg = DeviceRegistry()
        spec = get_accelerator("A100-SXM4")
        reg.add(SimulatedDevice(0, spec, clock=clock))
        with pytest.raises(MeasurementError):
            reg.add(SimulatedDevice(0, spec, clock=clock))

    def test_get_unknown_index(self):
        with pytest.raises(MeasurementError):
            DeviceRegistry().get(3)

    def test_superchip_nodes_fold_in_host_share(self, clock):
        from repro.hardware.systems import get_system

        gh = DeviceRegistry.for_node(get_system("GH200"), clock=clock).get(0)
        h100 = DeviceRegistry.for_node(get_system("WAIH100"), clock=clock).get(0)
        # Same GPU TDP class, but the GH200 package counter includes the
        # Grace share -> higher idle and max.
        assert gh.model.idle_watts > h100.model.idle_watts
        assert gh.model.max_watts > h100.model.max_watts

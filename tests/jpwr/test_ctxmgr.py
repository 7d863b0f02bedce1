"""Tests for the jpwr context manager."""

import time

import pytest

from repro.errors import MeasurementError
from repro.hardware.systems import get_system
from repro.jpwr.ctxmgr import MeasuredScope, get_power
from repro.jpwr.methods.gh import GraceHopperMethod
from repro.jpwr.methods.pynvml import PynvmlMethod
from repro.power.sensors import DeviceRegistry
from repro.simcluster.clock import VirtualClock


@pytest.fixture
def setup():
    clock = VirtualClock()
    registry = DeviceRegistry.for_node(get_system("A100"), clock=clock)
    return clock, registry


class TestManualSampling:
    def test_paper_usage_pattern(self, setup):
        clock, registry = setup
        met_list = [PynvmlMethod(registry)]
        with get_power(met_list, 100, clock=clock, manual=True) as measured_scope:
            registry.get(0).set_utilisation(0.8)
            clock.advance(10.0)
            measured_scope.sample()
        assert len(measured_scope.df) >= 2
        energy_df, additional = measured_scope.energy()
        assert "gpu0" in energy_df.columns
        assert "nvml_energy_counters" in additional

    def test_energy_matches_model_exactly_with_transition_samples(self, setup):
        clock, registry = setup
        device = registry.get(0)
        with get_power([PynvmlMethod(registry)], 100, clock=clock, manual=True) as scope:
            device.set_utilisation(1.0)
            scope.sample()  # at the transition
            clock.advance(100.0)
            scope.sample()
            device.set_utilisation(0.0)
            scope.sample()
            clock.advance(100.0)
        energy_df, _ = scope.energy()
        expected = (device.model.power(1.0) + device.model.power(0.0)) * 100 / 3600
        # NVML milliwatt quantisation bounds the error.
        assert energy_df.row(0)["gpu0"] == pytest.approx(expected, rel=1e-4)

    def test_multiple_methods_merge_columns(self, setup):
        clock, _ = setup
        registry = DeviceRegistry.for_node(get_system("GH200"), clock=clock)
        methods = [PynvmlMethod(registry), GraceHopperMethod(registry)]
        with get_power(methods, 100, clock=clock, manual=True) as scope:
            clock.advance(1.0)
            scope.sample()
        assert set(scope.df.columns) == {"time_s", "gpu0", "gh_module0", "gh_cpu0"}

    def test_total_energy_sums_columns(self, setup):
        clock, registry = setup
        with get_power([PynvmlMethod(registry)], 100, clock=clock, manual=True) as scope:
            clock.advance(3600.0)
            scope.sample()
        edf, _ = scope.energy()
        assert scope.total_energy_wh() == pytest.approx(sum(edf.row(0).values()))


class TestRepeatRow:
    """``repeat_row`` against one keyed :meth:`MeasuredScope.sample` per row."""

    @staticmethod
    def scope_with_rows(keys):
        """A manual scope that kept one row per key, at utilisations 0.1, 0.2, ..."""
        clock = VirtualClock()
        registry = DeviceRegistry.for_node(get_system("GH200"), clock=clock)
        methods = [PynvmlMethod(registry), GraceHopperMethod(registry)]
        scope = MeasuredScope(methods, 100, clock, manual=True)
        scope.start()
        for i, key in enumerate(keys):
            registry.get(0).set_utilisation(0.1 * (i + 1))
            clock.advance(0.5)
            scope.sample(key)
        return clock, scope

    def assert_equals_samples(self, keys, runs, periods):
        period = [key for key, run in zip(keys, runs) for _ in range(run)]
        times = [10.0 + 0.25 * i for i in range(periods * len(period))]
        _, bulk = self.scope_with_rows(sorted(set(keys)))
        clock, sampled = self.scope_with_rows(sorted(set(keys)))
        bulk.repeat_row(keys, runs, times)
        for i, t in enumerate(times):
            clock.advance_to(t)
            sampled.sample(period[i % len(period)])
        frame = {c: list(bulk.df[c]) for c in bulk.df.columns}
        assert frame == {c: list(sampled.df[c]) for c in sampled.df.columns}
        assert len(bulk.df) == 1 + len(set(keys)) + len(times)

    def test_cycles_one_period_over_several(self):
        self.assert_equals_samples(["busy", "tail"], [2, 2], periods=3)

    def test_runs_of_unequal_length(self):
        # A recorded serving run: one period, a key recurring after others.
        self.assert_equals_samples(
            ["busy", "tail", "idle", "busy"], [6, 2, 2, 4], periods=1
        )

    def test_missing_key_appends_nothing(self):
        _, scope = self.scope_with_rows(["busy"])
        before = {c: list(scope.df[c]) for c in scope.df.columns}
        assert scope.has_row("busy") and not scope.has_row("tail")
        with pytest.raises(KeyError):
            scope.repeat_row(["busy", "tail"], [2, 2], [1.0, 2.0, 3.0, 4.0])
        assert {c: list(scope.df[c]) for c in scope.df.columns} == before


class TestFailureHandling:
    def test_sensor_dropout_skips_sample(self, setup):
        clock, registry = setup
        with get_power([PynvmlMethod(registry)], 100, clock=clock, manual=True) as scope:
            clock.advance(1.0)
            scope.sample()
            registry.get(2).fail()
            clock.advance(1.0)
            scope.sample()  # dropped
            registry.get(2).repair()
            clock.advance(1.0)
            scope.sample()
        assert scope.dropped_samples == 1
        assert len(scope.df) == 4  # entry + 2 good + exit

    def test_sensor_dropout_raises_when_configured(self, setup):
        clock, registry = setup
        cm = get_power(
            [PynvmlMethod(registry)], 100, clock=clock, manual=True, on_error="raise"
        )
        with pytest.raises(MeasurementError):
            with cm as scope:
                registry.get(0).fail()
                scope.sample()

    def test_requires_methods(self, setup):
        clock, _ = setup
        with pytest.raises(MeasurementError):
            get_power([], 100, clock=clock)

    def test_requires_positive_interval(self, setup):
        clock, registry = setup
        with pytest.raises(MeasurementError):
            get_power([PynvmlMethod(registry)], 0, clock=clock)

    def test_invalid_on_error(self, setup):
        clock, registry = setup
        with pytest.raises(MeasurementError):
            get_power([PynvmlMethod(registry)], 100, clock=clock, on_error="explode")

    def test_init_failure_propagates(self, setup):
        clock, _ = setup
        amd_registry = DeviceRegistry.for_node(get_system("A100"), clock=clock)
        method = PynvmlMethod(amd_registry)
        method.vendor = None  # devices() returns all; fine
        # A method with no devices fails at scope entry.
        from repro.jpwr.methods.rocmsmi import RocmSmiMethod

        with pytest.raises(MeasurementError):
            with get_power([RocmSmiMethod(amd_registry)], 100, clock=clock):
                pass


class TestThreadedSampling:
    def test_background_thread_collects_samples(self):
        # Real-time mode: wall-clock sampling of simulated devices.
        registry = DeviceRegistry.for_node(get_system("A100"))
        with get_power([PynvmlMethod(registry)], 5) as scope:
            registry.get(0).set_utilisation(0.9)
            time.sleep(0.08)
        assert len(scope.df) >= 5
        edf, _ = scope.energy()
        assert edf.row(0)["gpu0"] > 0

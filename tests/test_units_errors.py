"""Tests for the unit helpers and the exception hierarchy."""

import pytest

from repro import __version__, errors, units


class TestUnits:
    def test_memory_units(self):
        assert units.gb(40) == 40_000_000_000
        assert units.mb(900) == 900_000_000

    def test_bandwidth_units(self):
        assert units.gbps(900) == 900e9
        # Network links are quoted in bits.
        assert units.gbit_s(400) == pytest.approx(50e9)

    def test_compute_units(self):
        assert units.tflops(312) == 312e12

    def test_energy_conversions_roundtrip(self):
        assert units.joules_to_wh(3600) == 1.0
        assert units.joules_to_wh(1234.5) * units.JOULES_PER_WH == pytest.approx(1234.5)

    def test_per_wh(self):
        # 10 items/s at 36 W -> 1000 items/Wh.
        assert units.per_wh(10.0, 36.0) == pytest.approx(1000.0)

    def test_per_wh_rejects_nonpositive_power(self):
        # Part of the repro.errors taxonomy, not a bare ValueError.
        with pytest.raises(errors.ConfigError):
            units.per_wh(10.0, 0.0)
        with pytest.raises(errors.ReproError):
            units.per_wh(10.0, -5.0)

    def test_version_is_semver(self):
        parts = __version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


class TestErrors:
    def test_all_errors_are_repro_errors(self):
        for name in (
            "HardwareError", "UnknownSystemError", "ConfigError",
            "OutOfMemoryError", "SchedulerError", "MeasurementError",
            "JubeError", "DataError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_unknown_system_is_hardware_error(self):
        assert issubclass(errors.UnknownSystemError, errors.HardwareError)

    def test_oom_carries_sizes(self):
        exc = errors.OutOfMemoryError("boom", required_bytes=10, capacity_bytes=5)
        assert exc.required_bytes == 10
        assert exc.capacity_bytes == 5

    def test_oom_sizes_default_zero(self):
        exc = errors.OutOfMemoryError("boom")
        assert exc.required_bytes == 0

    def test_catching_base_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.JubeError("x")

"""Tests for the time-varying grid intensity timeseries."""

import pytest

from repro.analysis.carbon import IntensityPoint, IntensityTimeseries
from repro.errors import ConfigError


def _series():
    return IntensityTimeseries(
        points=(
            IntensityPoint(0.0, 100.0),
            IntensityPoint(3600.0, 400.0),
            IntensityPoint(7200.0, 200.0),
        )
    )


class TestLookup:
    def test_at_picks_the_step_in_effect(self):
        ts = _series()
        assert ts.at(0.0).gco2_per_kwh == 100.0
        assert ts.at(3599.9).gco2_per_kwh == 100.0
        assert ts.at(3600.0).gco2_per_kwh == 400.0
        # The last step extends to infinity.
        assert ts.at(1e9).gco2_per_kwh == 200.0

    def test_lookups_before_first_point_clamp(self):
        assert _series().at(-100.0).gco2_per_kwh == 100.0


class TestMeans:
    def test_mean_within_one_step(self):
        assert _series().mean_gco2(0.0, 1800.0) == pytest.approx(100.0)

    def test_mean_across_boundary_is_time_weighted(self):
        # Half an hour at 100, half at 400.
        mean = _series().mean_gco2(1800.0, 5400.0)
        assert mean == pytest.approx(250.0)

    def test_rejects_empty_window(self):
        with pytest.raises(ConfigError):
            _series().mean_gco2(100.0, 100.0)


class TestLowestWindow:
    def test_finds_the_green_step(self):
        start, mean = _series().lowest_window(1800.0)
        assert start == 0.0
        assert mean == pytest.approx(100.0)

    def test_horizon_bounds_deferral(self):
        ts = IntensityTimeseries(
            points=(
                IntensityPoint(0.0, 500.0),
                IntensityPoint(3600.0, 50.0),
            )
        )
        start, _ = ts.lowest_window(600.0)
        assert start == 3600.0
        start, mean = ts.lowest_window(600.0, horizon_s=1000.0)
        assert start == 0.0
        assert mean == pytest.approx(500.0)


class TestConstructors:
    def test_diurnal_is_deterministic(self):
        a = IntensityTimeseries.diurnal()
        b = IntensityTimeseries.diurnal()
        assert a == b

    def test_diurnal_troughs_at_the_solar_peak(self):
        ts = IntensityTimeseries.diurnal(trough_at_s=50400.0)
        cleanest = min(ts.points, key=lambda p: p.gco2_per_kwh)
        # The cleanest hour segment's midpoint brackets 14:00 (the two
        # segments around the trough tie; min takes the earlier one).
        midpoint = cleanest.start_s + 1800.0
        assert abs(midpoint - 50400.0) <= 1800.0

    def test_diurnal_mean_preserved(self):
        ts = IntensityTimeseries.diurnal(mean_gco2_per_kwh=380.0)
        assert ts.mean_gco2(0.0, 86400.0) == pytest.approx(380.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            IntensityTimeseries(points=())
        with pytest.raises(ConfigError):
            IntensityTimeseries(
                points=(IntensityPoint(10.0, 1.0), IntensityPoint(0.0, 1.0))
            )
        with pytest.raises(ConfigError):
            IntensityTimeseries(points=(IntensityPoint(0.0, -1.0),))
        with pytest.raises(ConfigError):
            IntensityTimeseries.diurnal(swing=1.5)

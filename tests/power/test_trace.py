"""Tests for utilisation timelines and power traces."""

import pytest

from repro.power.model import PowerModel
from repro.power.trace import PowerTrace, UtilisationTimeline


@pytest.fixture
def model():
    return PowerModel(idle_watts=100, max_watts=400, gamma=1.0)


class TestUtilisationTimeline:
    def test_append_and_totals(self):
        tl = UtilisationTimeline()
        tl.append(2.0, 0.5)
        tl.append(3.0, 1.0)
        assert len(tl) == 2
        assert tl.total_duration_s == 5.0
        assert tl.end_time_s == 5.0

    def test_zero_duration_segments_dropped(self):
        tl = UtilisationTimeline()
        tl.append(0.0, 0.5)
        assert len(tl) == 0

    def test_utilisation_lookup(self):
        tl = UtilisationTimeline(start_time_s=10.0)
        tl.append(2.0, 0.3)
        tl.append(2.0, 0.9)
        assert tl.utilisation_at(9.0) == 0.0
        assert tl.utilisation_at(10.5) == 0.3
        assert tl.utilisation_at(12.5) == 0.9
        assert tl.utilisation_at(14.0) == 0.0  # past the end

    def test_segments_are_absolute(self):
        tl = UtilisationTimeline(start_time_s=5.0)
        tl.append(1.0, 0.2)
        tl.append(2.0, 0.8)
        assert tl.segments() == [(5.0, 1.0, 0.2), (6.0, 2.0, 0.8)]

    def test_exact_energy(self, model):
        tl = UtilisationTimeline()
        tl.append(10.0, 0.0)  # 100 W
        tl.append(10.0, 1.0)  # 400 W
        assert tl.exact_energy_j(model) == pytest.approx(5000.0)

    def test_mean_power(self, model):
        tl = UtilisationTimeline()
        tl.append(10.0, 0.0)
        tl.append(10.0, 1.0)
        assert tl.mean_power_w(model) == pytest.approx(250.0)

    def test_rejects_bad_inputs(self):
        tl = UtilisationTimeline()
        with pytest.raises(ValueError):
            tl.append(-1.0, 0.5)
        with pytest.raises(ValueError):
            tl.append(1.0, 1.5)


class TestPowerTrace:
    def test_trapezoid_energy(self):
        trace = PowerTrace()
        trace.add(0.0, 100.0)
        trace.add(10.0, 300.0)
        assert trace.energy_j() == pytest.approx(2000.0)

    def test_too_few_samples_integrate_to_zero(self):
        trace = PowerTrace()
        assert trace.energy_j() == 0.0
        trace.add(0.0, 100.0)
        assert trace.energy_j() == 0.0

    def test_rejects_time_going_backwards(self):
        trace = PowerTrace()
        trace.add(1.0, 100.0)
        with pytest.raises(ValueError):
            trace.add(0.5, 100.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PowerTrace().add(0.0, -1.0)

    def test_mean_and_max(self):
        trace = PowerTrace()
        trace.add(0.0, 100.0)
        trace.add(1.0, 300.0)
        assert trace.mean_power_w() == pytest.approx(200.0)

    def test_from_timeline_matches_exact_for_constant_power(self, model):
        tl = UtilisationTimeline()
        tl.append(10.0, 0.6)
        trace = PowerTrace.from_timeline(tl, model, interval_s=0.1)
        assert trace.energy_j() == pytest.approx(tl.exact_energy_j(model), rel=1e-9)

    def test_from_timeline_sampling_error_bounded(self, model):
        # Piecewise-constant utilisation: trapezoidal error is bounded
        # by one interval's worth of the power swing per transition.
        tl = UtilisationTimeline()
        tl.append(5.0, 0.2)
        tl.append(5.0, 0.9)
        tl.append(5.0, 0.1)
        interval = 0.05
        trace = PowerTrace.from_timeline(tl, model, interval_s=interval)
        exact = tl.exact_energy_j(model)
        swing = model.max_watts - model.idle_watts
        bound = 2 * interval * swing  # 2 transitions
        assert abs(trace.energy_j() - exact) <= bound

    def test_from_timeline_rejects_bad_interval(self, model):
        with pytest.raises(ValueError):
            PowerTrace.from_timeline(UtilisationTimeline(), model, interval_s=0)

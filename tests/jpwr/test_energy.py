"""Tests for energy integration."""

import pytest

from repro.errors import MeasurementError
from repro.jpwr.energy import energy_frame, integrate_energy_wh
from repro.jpwr.frame import DataFrame


def make_frame(times, powers):
    df = DataFrame(["time_s", "gpu0"])
    for t, p in zip(times, powers):
        df.add_row({"time_s": t, "gpu0": p})
    return df


class TestIntegration:
    def test_constant_power(self):
        df = make_frame([0, 3600], [100, 100])
        assert integrate_energy_wh(df) == {"gpu0": pytest.approx(100.0)}

    def test_linear_ramp(self):
        # 0 -> 360 W over 3600 s: mean 180 W -> 180 Wh.
        df = make_frame([0, 3600], [0, 360])
        assert integrate_energy_wh(df)["gpu0"] == pytest.approx(180.0)

    def test_multiple_columns(self):
        df = DataFrame(["time_s", "gpu0", "gpu1"])
        df.add_row({"time_s": 0, "gpu0": 100, "gpu1": 200})
        df.add_row({"time_s": 3600, "gpu0": 100, "gpu1": 200})
        energies = integrate_energy_wh(df)
        assert energies["gpu0"] == pytest.approx(100.0)
        assert energies["gpu1"] == pytest.approx(200.0)

    def test_selected_columns_in_the_given_order(self):
        df = DataFrame(["time_s", "gpu0", "gpu1", "gh-module0"])
        for t, p in ((0.0, 98.3), (0.7, 311.9), (0.7, 127.1), (2.9, 401.3)):
            df.add_row({"time_s": t, "gpu0": p, "gpu1": p / 3, "gh-module0": p + 1})
        every = integrate_energy_wh(df.copy())
        chosen = integrate_energy_wh(df, ["gh-module0", "gpu0"])
        assert list(chosen) == ["gh-module0", "gpu0"]
        assert chosen == {c: every[c] for c in chosen}  # bit for bit
        assert integrate_energy_wh(df, []) == {}

    def test_selection_keeps_the_time_checks(self):
        with pytest.raises(MeasurementError, match="2 samples"):
            integrate_energy_wh(make_frame([0], [100]), ["gpu0"])
        with pytest.raises(MeasurementError, match="time"):
            integrate_energy_wh(DataFrame(["gpu0"]), ["gpu0"])
        with pytest.raises(MeasurementError, match="no column"):
            integrate_energy_wh(make_frame([0, 1], [100, 100]), ["gpu1"])

    def test_requires_two_samples(self):
        with pytest.raises(MeasurementError, match="2 samples"):
            integrate_energy_wh(make_frame([0], [100]))

    def test_requires_time_column(self):
        df = DataFrame(["gpu0"])
        with pytest.raises(MeasurementError, match="time"):
            integrate_energy_wh(df)

    def test_rejects_non_monotonic_time(self):
        df = DataFrame(["time_s", "gpu0"])
        df._columns["time_s"] = [0.0, 2.0, 1.0]
        df._columns["gpu0"] = [1.0, 1.0, 1.0]
        with pytest.raises(MeasurementError, match="monoton"):
            integrate_energy_wh(df)

    def test_duplicate_timestamps_allowed(self):
        # Phase transitions sample twice at the same instant.
        df = make_frame([0.0, 1.0, 1.0, 2.0], [100, 100, 300, 300])
        # 1 s at 100 W + 1 s at 300 W = 400 J
        assert integrate_energy_wh(df)["gpu0"] == pytest.approx(400 / 3600)


class TestDerived:
    def test_energy_frame_single_row(self):
        df = make_frame([0, 3600], [100, 100])
        edf = energy_frame(df)
        assert len(edf) == 1
        assert edf.row(0)["gpu0"] == pytest.approx(100.0)


class TestCumulative:
    def test_matches_total_integration(self):
        from repro.jpwr.energy import cumulative_energy_wh

        df = make_frame([0.0, 1.0, 1.0, 2.0], [100, 100, 300, 300])
        times, cumulative = cumulative_energy_wh(df)
        assert list(times) == [0.0, 1.0, 1.0, 2.0]
        assert cumulative[0] == 0.0
        assert cumulative[-1] == pytest.approx(integrate_energy_wh(df)["gpu0"])

    def test_sums_selected_columns(self):
        from repro.jpwr.energy import cumulative_energy_wh
        from repro.jpwr.frame import DataFrame

        df = DataFrame(["time_s", "gpu0", "gpu1"])
        df.add_row({"time_s": 0, "gpu0": 100, "gpu1": 50})
        df.add_row({"time_s": 3600, "gpu0": 100, "gpu1": 50})
        _, both = cumulative_energy_wh(df)
        _, only = cumulative_energy_wh(df, ["gpu0"])
        assert both[-1] == pytest.approx(150.0)
        assert only[-1] == pytest.approx(100.0)

    def test_unknown_column_raises(self):
        from repro.jpwr.energy import cumulative_energy_wh

        with pytest.raises(MeasurementError, match="gpu9"):
            cumulative_energy_wh(make_frame([0, 1], [100, 100]), ["gpu9"])

    def test_requires_two_samples(self):
        from repro.jpwr.energy import cumulative_energy_wh

        with pytest.raises(MeasurementError, match="2 samples"):
            cumulative_energy_wh(make_frame([0], [100]))

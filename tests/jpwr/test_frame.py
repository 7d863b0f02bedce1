"""Tests for the lightweight DataFrame."""

import math

import pytest

from repro.errors import MeasurementError
from repro.jpwr.frame import DataFrame


@pytest.fixture
def df():
    frame = DataFrame(["time_s", "gpu0"])
    frame.add_row({"time_s": 0.0, "gpu0": 100.0})
    frame.add_row({"time_s": 1.0, "gpu0": 200.0})
    return frame


class TestShape:
    def test_columns_and_len(self, df):
        assert df.columns == ["time_s", "gpu0"]
        assert len(df) == 2
        assert not df.empty

    def test_empty_frame(self):
        assert DataFrame().empty
        assert len(DataFrame(["a"])) == 0

    def test_duplicate_columns_rejected(self):
        with pytest.raises(MeasurementError):
            DataFrame(["a", "a"])

    def test_generator_columns_accepted(self):
        frame = DataFrame(c for c in ["a", "b"])
        assert frame.columns == ["a", "b"]


class TestAccess:
    def test_getitem(self, df):
        assert df["gpu0"] == [100.0, 200.0]

    def test_missing_column(self, df):
        with pytest.raises(MeasurementError):
            df["gpu7"]

    def test_contains(self, df):
        assert "gpu0" in df and "gpu9" not in df

    def test_row(self, df):
        assert df.row(1) == {"time_s": 1.0, "gpu0": 200.0}
        assert df.row(-1) == df.row(1)

    def test_row_out_of_range(self, df):
        with pytest.raises(MeasurementError):
            df.row(2)

    def test_rows_iterates_in_order(self, df):
        assert [r["gpu0"] for r in df.rows()] == [100.0, 200.0]


class TestMutation:
    def test_add_row_requires_exact_keys(self, df):
        with pytest.raises(MeasurementError, match="mismatch"):
            df.add_row({"time_s": 2.0})
        with pytest.raises(MeasurementError, match="mismatch"):
            df.add_row({"time_s": 2.0, "gpu0": 1.0, "gpu1": 1.0})

    def test_values_coerced_to_float(self):
        frame = DataFrame(["x"])
        frame.add_row({"x": 3})
        assert frame["x"] == [3.0]

    def test_extend_columns_appends_rows(self, df):
        df.extend_columns([[2.0, 3.0], [300.0, 400.0]])
        assert [r["gpu0"] for r in df.rows()] == [100.0, 200.0, 300.0, 400.0]
        assert df.row(-1) == {"time_s": 3.0, "gpu0": 400.0}

    def test_extend_columns_checks_width_and_lengths(self, df):
        with pytest.raises(MeasurementError, match="columns"):
            df.extend_columns([[2.0]])
        with pytest.raises(MeasurementError, match="unequal"):
            df.extend_columns([[2.0, 3.0], [300.0]])
        assert len(df) == 2


class TestStatistics:
    def test_mean_sum_min_max(self, df):
        assert df.mean("gpu0") == 150.0
        assert df.sum("gpu0") == 300.0
        assert df.min("gpu0") == 100.0
        assert df.max("gpu0") == 200.0

    def test_stats_on_empty(self):
        frame = DataFrame(["x"])
        assert math.isnan(frame.mean("x"))
        assert frame.sum("x") == 0.0


class TestSerialisation:
    def test_csv_round_trip(self, df):
        restored = DataFrame.from_csv(df.to_csv())
        assert restored.columns == df.columns
        assert restored["gpu0"] == df["gpu0"]

    def test_json_round_trip(self, df):
        restored = DataFrame.from_json(df.to_json())
        assert restored.columns == df.columns
        assert restored["time_s"] == df["time_s"]

    def test_from_csv_rejects_empty(self):
        with pytest.raises(MeasurementError):
            DataFrame.from_csv("")

    def test_from_csv_rejects_ragged_rows(self):
        with pytest.raises(MeasurementError):
            DataFrame.from_csv("a,b\n1.0\n")

    def test_from_json_rejects_ragged_columns(self):
        with pytest.raises(MeasurementError):
            DataFrame.from_json('{"a": [1, 2], "b": [1]}')

    def test_str_contains_header_and_values(self, df):
        text = str(df)
        assert "gpu0" in text and "200.000" in text

    def test_copy_is_deep(self, df):
        dup = df.copy()
        dup.add_row({"time_s": 2.0, "gpu0": 5.0})
        assert len(df) == 2 and len(dup) == 3

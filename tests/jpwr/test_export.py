"""Tests for jpwr result export and suffix expansion."""

import pytest

from repro.errors import MeasurementError
from repro.jpwr.export import (
    expand_suffix,
    export_measurement,
    read_frame,
    write_frame,
)
from repro.jpwr.frame import DataFrame


def simple_frame(value=1.0):
    df = DataFrame(["time_s", "gpu0"])
    df.add_row({"time_s": 0.0, "gpu0": value})
    df.add_row({"time_s": 1.0, "gpu0": value})
    return df


class TestSuffixExpansion:
    def test_plain_suffix_unchanged(self):
        assert expand_suffix("_rank0", {}) == "_rank0"

    def test_q_variable_expansion(self):
        # The paper's example: --df-suffix "%q{SLURM_PROCID}".
        assert expand_suffix("_%q{SLURM_PROCID}", {"SLURM_PROCID": "3"}) == "_3"

    def test_multiple_variables(self):
        env = {"A": "x", "B": "y"}
        assert expand_suffix("%q{A}-%q{B}", env) == "x-y"

    def test_unset_variable_raises(self):
        with pytest.raises(MeasurementError, match="SLURM_PROCID"):
            expand_suffix("%q{SLURM_PROCID}", {})


class TestWriteRead:
    def test_csv_round_trip(self, tmp_path):
        path = write_frame(simple_frame(), tmp_path, "power", "csv")
        assert path.name == "power.csv"
        restored = read_frame(path)
        assert restored["gpu0"] == [1.0, 1.0]

    def test_json_round_trip(self, tmp_path):
        path = write_frame(simple_frame(), tmp_path, "power", "json")
        assert read_frame(path)["gpu0"] == [1.0, 1.0]

    def test_suffix_in_filename(self, tmp_path):
        path = write_frame(
            simple_frame(), tmp_path, "power", "csv",
            suffix="_%q{RANK}", env={"RANK": "2"},
        )
        assert path.name == "power_2.csv"

    def test_unsupported_filetype(self, tmp_path):
        with pytest.raises(MeasurementError, match="filetype"):
            write_frame(simple_frame(), tmp_path, "power", "parquet")

    def test_read_unknown_extension(self, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("x")
        with pytest.raises(MeasurementError):
            read_frame(p)

    def test_creates_output_directory(self, tmp_path):
        out = tmp_path / "nested" / "dir"
        write_frame(simple_frame(), out, "power", "csv")
        assert (out / "power.csv").exists()


class TestExportMeasurement:
    def test_writes_all_artifacts(self, tmp_path):
        energy = DataFrame(["gpu0"])
        energy.add_row({"gpu0": 0.5})
        extra = DataFrame(["device"])
        extra.add_row({"device": 0})
        paths = export_measurement(
            simple_frame(), energy, {"nvml/energy": extra}, tmp_path, "csv"
        )
        names = sorted(p.name for p in paths)
        assert names == ["additional_nvml_energy.csv", "energy.csv", "power.csv"]

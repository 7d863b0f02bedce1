"""The recorded benches' shared gate rule and their committed reports.

``benchmarks/harness.py`` re-measures each bench's gated headline; the
gate tests drive it with a fake ``measure`` so no bench runs.  The
benches are imported the way their scripts import the harness: from
the ``benchmarks/`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_campaign_scale  # noqa: E402
import bench_powercap  # noqa: E402
import bench_serve_cluster  # noqa: E402
import harness  # noqa: E402

BENCHES = (bench_campaign_scale, bench_serve_cluster, bench_powercap)


def _report(tmp_path: Path, entry: dict) -> Path:
    path = tmp_path / "BENCH_fake.json"
    path.write_text(json.dumps({"headline": {"fake": entry}}))
    return path


def _gate(speedups, *, floor=1.0, attempts=3, checks=(), **fields):
    """A gate whose n-th measurement reads ``speedups[n]``, and its calls."""
    calls: list[Path] = []

    def measure(workdir: Path) -> dict:
        calls.append(workdir)
        return {"speedup": speedups[len(calls) - 1], **fields}

    return harness.Gate("fake", measure, floor, attempts, checks), calls


def test_passes_at_the_floor(tmp_path):
    gate, calls = _gate([8.0])
    assert harness.run_gate(gate, _report(tmp_path, {"speedup": 10.0})) == 0
    assert len(calls) == 1


def test_remeasures_a_low_ratio_and_keeps_the_best(tmp_path, capsys):
    gate, calls = _gate([5.0, 7.5, 6.0])
    assert harness.run_gate(gate, _report(tmp_path, {"speedup": 10.0})) == 1
    assert len(calls) == 3
    assert "speedup 7.5x" in capsys.readouterr().out.splitlines()[-1]


def test_stops_remeasuring_once_the_floor_is_met(tmp_path):
    gate, calls = _gate([5.0, 9.0, 20.0])
    assert harness.run_gate(gate, _report(tmp_path, {"speedup": 10.0})) == 0
    assert len(calls) == 2


def test_a_false_check_fails_at_once(tmp_path, capsys):
    gate, calls = _gate(
        [50.0, 50.0], checks=("identical", "ordered"), identical=False, ordered=True
    )
    assert harness.run_gate(gate, _report(tmp_path, {"speedup": 10.0})) == 1
    assert len(calls) == 1
    assert "identical false" in capsys.readouterr().out


def test_prefers_the_quick_reference(tmp_path):
    entry = {"speedup": 100.0, "quick_reference": {"speedup": 10.0}}
    gate, _ = _gate([8.0])
    assert harness.run_gate(gate, _report(tmp_path, entry)) == 0


@pytest.mark.parametrize("measured, code", [(4.9, 1), (5.0, 0)])
def test_the_floor_never_drops_below_the_gate_floor(tmp_path, measured, code):
    gate, _ = _gate([measured], floor=5.0, attempts=1)
    assert harness.run_gate(gate, _report(tmp_path, {"speedup": 1.0})) == code


@pytest.mark.parametrize("bench", BENCHES, ids=lambda bench: bench.__name__)
def test_each_gate_names_a_recorded_speedup(bench):
    report = json.loads((ROOT / bench.REPORT).read_text())
    entry = report["headline"][bench.GATE.headline]
    for recorded in (entry, entry.get("quick_reference", entry)):
        assert isinstance(recorded["speedup"], float)
        assert all(recorded[name] is True for name in bench.GATE.checks)


def test_no_report_has_two_writers():
    reports = [bench.REPORT for bench in BENCHES]
    assert len(set(reports)) == len(reports)

"""``BENCH_campaign.json`` is shared by two benches and both gates.

``benchmarks/bench_campaign_scale.py`` writes the file and
``benchmarks/bench_powercap.py`` merges its headline into it; CI reruns
the campaign bench at quick size and then runs the power-cap gate on
the same file, so a rerun must keep what the other bench wrote.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _bench(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _campaign_report(speedup: float, quick: bool) -> dict:
    return {
        "bench": "campaign_scale",
        "results": [{"size": 100}],
        "headline": {"search": {"speedup": speedup}},
        "quick": quick,
    }


def test_rerun_keeps_the_powercap_headline(tmp_path):
    campaign = _bench("bench_campaign_scale")
    powercap = _bench("bench_powercap")
    out = tmp_path / "BENCH_campaign.json"
    campaign.write_report(out, _campaign_report(9.0, quick=False))
    powercap.merge_headline(out, {"speedup": 2.5}, quick=False)
    merged = json.loads(out.read_text())

    campaign.write_report(out, _campaign_report(5.0, quick=True))
    report = json.loads(out.read_text())
    assert report["headline"] == {
        "search": {"speedup": 5.0},
        "powercap": {"speedup": 2.5},
    }
    assert report["quick"] is True
    assert report["powercap_quick"] is False
    assert report["powercap_provenance"] == merged["powercap_provenance"]


def test_first_write_is_the_report(tmp_path):
    out = tmp_path / "BENCH_campaign.json"
    report = _campaign_report(9.0, quick=True)
    _bench("bench_campaign_scale").write_report(out, report)
    assert json.loads(out.read_text()) == report

"""Golden fixtures: seeded serve outputs pinned byte-for-byte.

The differential suite proves the shipped simulators equal the per-step
oracle of ``tests/serve_oracle.py``; these goldens prove *both* still
equal what they produced when the fixture was last blessed, catching
semantic drift that changes the two in lockstep (e.g. an accidental
change to energy attribution, summary rounding or the summariser they
share).  Every golden is checked against both: the summary and
OpenMetrics export in each percentile mode, and the per-request records
of the exact mode.  Regenerate deliberately with::

    pytest tests/serve/test_goldens.py --update-goldens

and review the diff like any other code change.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.engine.inference import InferenceEngine
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.telemetry import render_openmetrics
from repro.serve import PoissonArrivals, SLOPolicy
from serve_oracle import CLUSTER_SIMULATORS, SERVING_SIMULATORS

pytestmark = [pytest.mark.serve]

GOLDEN_DIR = Path(__file__).parent / "goldens"

ARRIVALS = PoissonArrivals(
    rate_per_s=10.0,
    requests=24,
    prompt_tokens=256,
    generate_tokens=32,
    length_spread=0.25,
    seed=7,
)
SLO = SLOPolicy(ttft_s=0.5, e2e_s=5.0)

#: Engines every golden is checked against; the first one blesses.
ENGINES = ("fast", "reference")


def _engine():
    return InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))


def _run_single(mode, percentile_mode="exact"):
    set_metrics(MetricsRegistry())
    result = SERVING_SIMULATORS[mode](
        _engine(),
        batch_cap=8,
        slo=SLO,
        percentile_mode=percentile_mode,
    ).run(ARRIVALS)
    return result, render_openmetrics(get_metrics())


def _run_cluster(
    mode, percentile_mode="exact", *, arrivals=ARRIVALS, replicas=2, batch_cap=8
):
    set_metrics(MetricsRegistry())
    result = CLUSTER_SIMULATORS[mode](
        _engine(),
        replicas=replicas,
        router="least-loaded",
        batch_cap=batch_cap,
        slo=SLO,
        percentile_mode=percentile_mode,
    ).run(arrivals)
    return result, render_openmetrics(get_metrics())


#: Golden-name prefix -> the run it pins.
RUNS = {"serve": _run_single, "cluster": _run_cluster}

#: A fleet stream long enough that every P² sketch makes about a
#: thousand marker updates; the 24-request goldens make 19.
LONG_ARRIVALS = PoissonArrivals(
    rate_per_s=380.0,
    requests=1000,
    prompt_tokens=512,
    generate_tokens=96,
    length_spread=0.25,
    seed=11,
)


def _summary(result, _openmetrics: str) -> str:
    return json.dumps(result.summary.to_dict(), sort_keys=True, indent=2) + "\n"


def _openmetrics(_result, openmetrics: str) -> str:
    return openmetrics


def _records(result, _openmetrics: str) -> str:
    return result.records_json() + "\n"


def _check(
    name: str, run, render, update: bool, percentile_mode="exact", engines=ENGINES
) -> None:
    """Compare every engine's rendered output against one golden file.

    With ``--update-goldens`` the first engine's output is written and
    the others must still match it.
    """
    path = GOLDEN_DIR / name
    produced = {}
    for mode in engines:
        result, openmetrics = run(mode, percentile_mode)
        produced[mode] = render(result, openmetrics)
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(produced[engines[0]], encoding="utf-8")
    assert path.exists(), (
        f"golden {path.name} missing; generate it with --update-goldens"
    )
    golden = path.read_text(encoding="utf-8")
    for mode, text in produced.items():
        assert text == golden, (
            f"{mode} output drifted from golden {path.name}; if the change "
            "is intentional, regenerate with --update-goldens and review "
            "the diff"
        )


class TestServeGoldens:
    def test_single_engine_summary(self, update_goldens):
        _check("serve_summary.json", _run_single, _summary, update_goldens)

    def test_single_engine_openmetrics(self, update_goldens):
        _check("serve.om", _run_single, _openmetrics, update_goldens)

    def test_cluster_summary(self, update_goldens):
        _check("cluster_summary.json", _run_cluster, _summary, update_goldens)

    def test_cluster_openmetrics(self, update_goldens):
        _check("cluster.om", _run_cluster, _openmetrics, update_goldens)

    @pytest.mark.parametrize("prefix", sorted(RUNS))
    def test_records(self, prefix, update_goldens):
        _check(f"{prefix}_records.json", RUNS[prefix], _records, update_goldens)

    @pytest.mark.parametrize("prefix", sorted(RUNS))
    def test_p2_summary(self, prefix, update_goldens):
        _check(
            f"{prefix}_p2_summary.json", RUNS[prefix], _summary, update_goldens, "p2"
        )

    @pytest.mark.parametrize("prefix", sorted(RUNS))
    def test_p2_openmetrics(self, prefix, update_goldens):
        _check(f"{prefix}_p2.om", RUNS[prefix], _openmetrics, update_goldens, "p2")

    def test_long_fleet_p2_summary(self, update_goldens):
        # The shipped simulator only: the per-step oracle would step
        # every decode step of the thousand requests one at a time.
        _check(
            "cluster_p2_long_summary.json",
            functools.partial(
                _run_cluster, arrivals=LONG_ARRIVALS, replicas=4, batch_cap=16
            ),
            _summary,
            update_goldens,
            "p2",
            engines=("fast",),
        )

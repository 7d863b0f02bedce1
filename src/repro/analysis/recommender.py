"""The serve-config recommender scenario for the evaluation report.

Answers the procurement question the ROADMAP poses — *"find the
cheapest configuration meeting a 200 ms TTFT SLO on GH200"* — by
running a small pruned Pareto search (:mod:`repro.campaign.search`)
over a batch-cap × arrival-rate serve grid and reporting the exact
frontier plus the min-energy / min-replica recommendations.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.executor import IsolatingExecutor
from repro.campaign.search import SearchPolicy, SearchReport, SearchRunner
from repro.campaign.spec import CampaignSpec, WorkloadSpec
from repro.campaign.store import JsonlStore

#: The system the recommender sizes, and the TTFT SLO it must meet.
RECOMMENDER_SYSTEM = "GH200"
RECOMMENDER_SLO_TTFT_MS = 200.0


@dataclass(frozen=True)
class RecommenderScenario:
    """The report's recommender sweep (small enough to run inline)."""

    requests: int = 256
    arrival_rates: tuple = (20, 40, 80)
    batch_caps: tuple = (4, 8, 16)
    policy: SearchPolicy = field(
        default_factory=lambda: SearchPolicy(
            screen_requests=32, rungs=1, min_keep=3, attainment_goal=0.99
        )
    )

    def spec(self) -> CampaignSpec:
        """The campaign spec the scenario expands to."""
        return CampaignSpec(
            name="report-recommender",
            systems=(RECOMMENDER_SYSTEM,),
            workloads=(
                WorkloadSpec.of_kind(
                    "serve",
                    name="sweep",
                    axes={
                        "arrival_rate": [str(r) for r in self.arrival_rates],
                        "batch_cap": [str(b) for b in self.batch_caps],
                    },
                    fixed={
                        "requests": str(self.requests),
                        "generate_tokens": "32",
                        "slo_ttft_ms": str(RECOMMENDER_SLO_TTFT_MS),
                    },
                ),
            ),
        )


def run_recommender(scenario: RecommenderScenario | None = None) -> SearchReport:
    """Execute the scenario's search against a throwaway store."""
    scenario = scenario or RecommenderScenario()
    with tempfile.TemporaryDirectory() as tmp:
        store = JsonlStore(Path(tmp) / "recommender.jsonl")
        runner = SearchRunner(store, executor=IsolatingExecutor())
        return runner.search(scenario.spec(), scenario.policy)


def recommender_rows(report: SearchReport) -> list[dict]:
    """The frontier as report-table rows."""
    return [
        {
            "config": row["config"],
            "SLO attainment": f"{row['slo_attainment']:.2%}",
            "Wh/request": f"{row['energy_per_request_wh']:.6f}",
            "replicas": row["replicas"],
        }
        for row in report.frontier
    ]

"""Cross-system serving comparison (latency percentiles + energy).

The serving counterpart of the Figure-2 tables: every GPU system serves
the same seeded Poisson request stream through the continuous-batching
simulator, and one row per system reports TTFT/E2E percentiles,
goodput, and the CARAML energy metrics (Wh per request, tokens/Wh).
Identical seeds make the table fully deterministic, so it can regenerate
inside the report without perturbing claim checks.

:func:`cluster_rows` adds the fleet view: the same session-heavy stream
served on multi-replica clusters across router policies and replica
counts, reporting goodput, SLO attainment, load imbalance and the
cluster-honest Wh/request (idle and spin-up energy included).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.inference import InferenceEngine
from repro.hardware.accelerator import AcceleratorKind
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.models.transformer import get_gpt_preset
from repro.serve import PoissonArrivals, SessionArrivals, ServingSimulator, SLOPolicy
from repro.serve.cluster import ClusterSimulator

#: Systems the serving table covers (every non-IPU Table I system).
SERVING_SYSTEM_TAGS = tuple(
    tag
    for tag in SYSTEM_TAGS
    if get_system(tag).accelerator.kind is not AcceleratorKind.IPU
)

#: What both serving scenarios hold fixed: the model served, the prompt
#: length, the batch cap and the end-to-end latency objective.
SERVING_MODEL = "800M"
SERVING_PROMPT_TOKENS = 512
SERVING_BATCH_CAP = 16
SERVING_SLO_E2E_S = 5.0


@dataclass(frozen=True)
class ServingScenario:
    """The fixed workload every system serves for the comparison."""

    rate_per_s: float = 8.0
    requests: int = 48
    generate_tokens: int = 96
    seed: int = 0
    slo_ttft_s: float = 0.5

    def arrivals(self) -> PoissonArrivals:
        """The seeded arrival stream of the scenario."""
        return PoissonArrivals(
            rate_per_s=self.rate_per_s,
            requests=self.requests,
            prompt_tokens=SERVING_PROMPT_TOKENS,
            generate_tokens=self.generate_tokens,
            length_spread=0.25,
            seed=self.seed,
        )

    def slo(self) -> SLOPolicy:
        """The latency objectives of the scenario."""
        return SLOPolicy(ttft_s=self.slo_ttft_s, e2e_s=SERVING_SLO_E2E_S)


def serving_rows(
    scenario: ServingScenario | None = None,
    systems: tuple[str, ...] = SERVING_SYSTEM_TAGS,
) -> list[dict[str, object]]:
    """One table row per system for the shared serving scenario."""
    scenario = scenario if scenario is not None else ServingScenario()
    rows: list[dict[str, object]] = []
    for tag in systems:
        engine = InferenceEngine(get_system(tag), get_gpt_preset(SERVING_MODEL))
        simulator = ServingSimulator(
            engine, batch_cap=SERVING_BATCH_CAP, slo=scenario.slo()
        )
        served = simulator.run(scenario.arrivals())
        s = served.summary
        rows.append(
            {
                "system": tag,
                "completed": s.completed,
                "ttft_p50_ms": round(s.ttft.p50 * 1e3, 2),
                "ttft_p99_ms": round(s.ttft.p99 * 1e3, 2),
                "tpot_p50_ms": round(s.tpot.p50 * 1e3, 3),
                "e2e_p99_s": round(s.e2e.p99, 4),
                "slo_attainment": round(s.slo_attainment, 4),
                "goodput_tok_s": round(s.goodput_tokens_per_s, 1),
                "wh_per_request": round(s.energy_per_request_wh, 5),
                "tokens_per_wh": round(s.tokens_per_wh, 1),
            }
        )
    # Stable alphabetical order: rows stay comparable across runs no
    # matter how the caller ordered (or filtered) the system axis.
    rows.sort(key=lambda row: row["system"])
    return rows


#: The cluster scenario's session traffic: one system, 8 req/s across 4
#: concurrent sessions whose prompts share a 384-token prefix.
CLUSTER_SYSTEM = "GH200"
CLUSTER_RATE_PER_S = 8.0
CLUSTER_SESSIONS = 4
CLUSTER_PREFIX_TOKENS = 384


@dataclass(frozen=True)
class ClusterScenario:
    """The session-heavy workload of the cluster comparison table.

    Session traffic (shared prompt prefixes, a few concurrent
    conversations) is the regime where router policy actually matters:
    a prefix-cache-aware router keeps sessions sticky and skips
    re-prefilling the shared prefix, which shows up in the goodput and
    Wh/request columns.
    """

    requests: int = 48
    generate_tokens: int = 96
    replica_counts: tuple[int, ...] = (1, 2, 4)
    routers: tuple[str, ...] = (
        "round-robin",
        "least-loaded",
        "session-affinity",
        "prefix-cache-aware",
    )

    def arrivals(self) -> SessionArrivals:
        """The seeded session-traffic stream of the scenario."""
        return SessionArrivals(
            rate_per_s=CLUSTER_RATE_PER_S,
            requests=self.requests,
            sessions=CLUSTER_SESSIONS,
            prompt_tokens=SERVING_PROMPT_TOKENS,
            prefix_tokens=CLUSTER_PREFIX_TOKENS,
            generate_tokens=self.generate_tokens,
            seed=0,
        )


def cluster_rows(
    scenario: ClusterScenario | None = None,
) -> list[dict[str, object]]:
    """One row per (replicas, router) for the shared cluster scenario.

    Rows are ordered by replica count then router name, so the table is
    stable across runs and easy to scan column-wise: scaling behaviour
    down the replica axis, policy behaviour across routers.
    """
    scenario = scenario if scenario is not None else ClusterScenario()
    engine = InferenceEngine(
        get_system(CLUSTER_SYSTEM), get_gpt_preset(SERVING_MODEL)
    )
    slo = SLOPolicy(ttft_s=0.5, e2e_s=SERVING_SLO_E2E_S)
    rows: list[dict[str, object]] = []
    for replicas in scenario.replica_counts:
        for router in sorted(scenario.routers):
            simulator = ClusterSimulator(
                engine,
                replicas=replicas,
                router=router,
                batch_cap=SERVING_BATCH_CAP,
                slo=slo,
            )
            result = simulator.run(scenario.arrivals())
            s = result.summary
            rows.append(
                {
                    "replicas": replicas,
                    "router": router,
                    "completed": s.serve.completed,
                    "goodput_tok_s": round(s.serve.goodput_tokens_per_s, 1),
                    "slo_attainment": round(s.serve.slo_attainment, 4),
                    "ttft_p99_ms": round(s.serve.ttft.p99 * 1e3, 2),
                    "load_imbalance": round(s.load_imbalance, 3),
                    "prefix_hit_rate": round(s.prefix_hit_rate, 3),
                    "wh_per_request": round(s.energy_per_request_wh, 5),
                    "idle_wh": round(s.idle_energy_wh, 5),
                }
            )
    return rows

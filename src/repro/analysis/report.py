"""Full evaluation report generation (``caraml report``).

Builds a single markdown report containing every regenerated table and
figure series plus the claim checks -- the artefact a user would attach
to a procurement study, which is the use case the paper motivates
("e.g. for purchase decisions in an academic or industrial setting").
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.carbon import IntensityTimeseries
from repro.analysis.compare import llm_claims, resnet_claims
from repro.analysis.figures import (
    fig2_llm_series,
    fig2_rows,
    fig3_resnet_series,
    fig3_rows,
)
from repro.analysis.heatmap import heatmap_grid_for
from repro.analysis.recommender import (
    RECOMMENDER_SLO_TTFT_MS,
    RECOMMENDER_SYSTEM,
    RecommenderScenario,
    recommender_rows,
    run_recommender,
)
from repro.analysis.render import render_all
from repro.analysis.serving import (
    CLUSTER_PREFIX_TOKENS,
    CLUSTER_RATE_PER_S,
    CLUSTER_SESSIONS,
    CLUSTER_SYSTEM,
    SERVING_BATCH_CAP,
    SERVING_PROMPT_TOKENS,
    SERVING_SLO_E2E_S,
    ClusterScenario,
    ServingScenario,
    cluster_rows,
    serving_rows,
)
from repro.analysis.powercap import (
    PowercapScenario,
    ServeCapScenario,
    energy_aware_schedule,
    frontier_table,
    points_from_rows,
    run_powercap_sweep,
    run_serve_cap_sweep,
)
from repro.analysis.tables import (
    table2_ipu_gpt,
    table3_ipu_resnet,
    table_rows_printable,
)
from repro.analysis.telemetry import (
    BURST_MIN_REPLICAS,
    BURST_OBJECTIVE,
    BURST_REPLICAS,
    BURST_SLO,
    BURST_SYSTEM,
    BURSTS,
    alert_rows,
    run_burst_scenario,
    series_rows,
)
from repro.hardware.systems import SYSTEM_TAGS, get_system


def _md_table(rows: list[dict[str, object]]) -> str:
    if not rows:
        return "(empty)"
    keys = list(rows[0])
    lines = [
        "| " + " | ".join(str(k) for k in keys) + " |",
        "|" + "|".join("---" for _ in keys) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(row[k]) for k in keys) + " |")
    return "\n".join(lines)


def build_report(*, include_figures: bool = False, figure_dir: str = "figures") -> str:
    """The full evaluation report as markdown text."""
    sections = ["# CARAML evaluation report\n"]

    sections.append("## Systems under test (Table I)\n")
    for tag in SYSTEM_TAGS:
        sections.append("```\n" + get_system(tag).describe() + "\n```")

    sections.append("\n## Figure 2: LLM training (800M GPT)\n")
    sections.append(_md_table(fig2_rows(fig2_llm_series())))

    sections.append("\n## Table II: GPT-117M on the IPU-POD4\n")
    sections.append(_md_table(table_rows_printable(table2_ipu_gpt(), "Tokens")))

    sections.append("\n## Figure 3: ResNet50 (single device)\n")
    sections.append(_md_table(fig3_rows(fig3_resnet_series())))

    sections.append("\n## Table III: ResNet50 on one GC200\n")
    sections.append(_md_table(table_rows_printable(table3_ipu_resnet(), "Images")))

    scenario = ServingScenario()
    sections.append("\n## Serving: latency and energy per request\n")
    sections.append(
        f"Seeded Poisson stream ({scenario.requests} requests at "
        f"{scenario.rate_per_s:g} req/s, {SERVING_PROMPT_TOKENS} prompt / "
        f"{scenario.generate_tokens} generated tokens, batch cap "
        f"{SERVING_BATCH_CAP}; SLO ttft<={scenario.slo_ttft_s:g}s, "
        f"e2e<={SERVING_SLO_E2E_S:g}s).\n"
    )
    sections.append(_md_table(serving_rows(scenario)))

    cluster = ClusterScenario()
    sections.append("\n## Serving cluster: routers, replicas, fleet energy\n")
    sections.append(
        f"Session traffic on {CLUSTER_SYSTEM} ({cluster.requests} requests "
        f"at {CLUSTER_RATE_PER_S:g} req/s across {CLUSTER_SESSIONS} "
        f"sessions, {CLUSTER_PREFIX_TOKENS}/{SERVING_PROMPT_TOKENS} shared "
        f"prefix tokens). Wh/request is cluster-honest: idle and spin-up "
        f"energy included.\n"
    )
    sections.append(_md_table(cluster_rows(cluster)))

    result, sampler, monitor = run_burst_scenario()
    sections.append("\n## Live telemetry: burn-rate alerts under burst load\n")
    sections.append(
        f"Burst stream on an autoscaled {BURST_SYSTEM} cluster "
        f"({' + '.join(f'{n}@{t:g}s' for t, n in BURSTS)} requests, "
        f"{BURST_MIN_REPLICAS}→{BURST_REPLICAS} replicas, SLO "
        f"ttft<={BURST_SLO.ttft_s:g}s / e2e<={BURST_SLO.e2e_s:g}s at a "
        f"{BURST_OBJECTIVE:.0%} objective). Attainment "
        f"{monitor.attainment:.3f}; multi-window burn-rate rules fired "
        f"{len(monitor.alerts)} alert(s).\n"
    )
    fired = alert_rows(monitor)
    sections.append(_md_table(fired) if fired else "(no alerts fired)")
    sections.append("\n### Sampled fleet timeseries\n")
    sections.append(_md_table(series_rows(sampler)))

    recommender = RecommenderScenario()
    search_report = run_recommender(recommender)
    sections.append("\n## Recommender: cheapest config meeting the SLO\n")
    sections.append(
        f"Pruned Pareto search over a batch-cap × arrival-rate grid on "
        f"{RECOMMENDER_SYSTEM} (TTFT SLO {RECOMMENDER_SLO_TTFT_MS:g} ms, "
        f"{recommender.requests} requests per config; "
        f"{search_report.pruned} of {search_report.total} configs pruned "
        f"on screening evidence, every reported row an exact full run).\n"
    )
    sections.append(_md_table(recommender_rows(search_report)))
    sections.append("")
    sections.append("```\n" + search_report.recommendation.describe() + "\n```")

    powercap = PowercapScenario()
    cap_rows = frontier_table(
        points_from_rows(run_powercap_sweep(powercap))
    )
    sections.append("\n## Power-cap frontier: throughput vs energy per token\n")
    sections.append(
        f"Cap × batch sweep on {' and '.join(powercap.systems)} "
        f"(caps at {', '.join(f'{f:.0%}' for f in powercap.cap_fractions)} "
        f"of TDP through the DVFS frequency model; one row per cap, best "
        f"batch). The tokens/Wh optimum sits below TDP: near stock clocks "
        f"throughput falls sublinearly in the cap while power falls "
        f"linearly.\n"
    )
    sections.append(_md_table(cap_rows))

    schedule = energy_aware_schedule(
        run_serve_cap_sweep(ServeCapScenario(requests=32)),
        IntensityTimeseries.diurnal(),
        site="jsc",
    )
    sections.append("\n## Energy-aware serving: caps scheduled on the grid\n")
    sections.append(
        "A diurnal carbon-intensity curve drives per-window cap choices "
        "for the serve fleet: clean windows run stock clocks, dirty "
        "windows drop down the frontier while holding the SLO.\n"
    )
    sections.append("```\n" + schedule.describe() + "\n```")

    sections.append("\n## Figure 4: throughput heatmaps\n")
    for tag in SYSTEM_TAGS:
        sections.append(f"### {tag}\n```\n{heatmap_grid_for(tag)}\n```")

    sections.append("\n## Paper claim checks (sections IV-A / IV-B)\n")
    for check in [*llm_claims(), *resnet_claims()]:
        sections.append(f"- `{check.describe()}`")

    if include_figures:
        paths = render_all(figure_dir)
        sections.append("\n## Rendered figures\n")
        for path in paths:
            sections.append(f"![{path.stem}]({path})")

    return "\n".join(sections) + "\n"


def write_report(
    path: str | Path, *, include_figures: bool = False
) -> Path:
    """Write the report (and optionally the SVG figures next to it)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    figure_dir = str(out.parent / "figures")
    out.write_text(
        build_report(include_figures=include_figures, figure_dir=figure_dir)
    )
    return out

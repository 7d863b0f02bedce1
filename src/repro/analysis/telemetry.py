"""Report section: live telemetry under burst load.

Drives the acceptance scenario for the telemetry layer — a bursty
request stream against an autoscaled cluster under a tight latency SLO
— with the sampler and burn-rate monitor attached, and renders what an
operator would see: the fired alerts (rule, fire/clear times, burn
rates) and a per-series summary of the sampled fleet timeseries.
Everything is seeded and simulated-time, so the section regenerates
deterministically inside ``caraml report``.
"""

from __future__ import annotations

from repro.engine.inference import InferenceEngine
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.telemetry import SLOMonitor, TelemetrySampler
from repro.serve import BurstArrivals, SLOPolicy
from repro.serve.cluster import AutoscalePolicy, ClusterSimulator


#: The burst scenario: two request floods against a small cluster of
#: 800M GPT replicas on one system, scaling up from one replica.  The
#: first burst lands while capacity is still spinning up, which is
#: exactly the regime burn-rate alerting exists to catch.
BURST_SYSTEM = "GH200"
BURST_REPLICAS = 2
BURST_MIN_REPLICAS = 1
#: ``(arrival_s, requests)`` of each flood.
BURSTS = ((0.5, 60), (3.0, 60))
#: The (tight) latency SLO the monitor burns against, and its objective.
BURST_SLO = SLOPolicy(ttft_s=0.05, e2e_s=0.8)
BURST_OBJECTIVE = 0.99


def run_burst_scenario():
    """Run the burst scenario with telemetry attached.

    Returns ``(result, sampler, monitor)``.  A fresh metrics registry is
    installed for the run so the section's gauges never mix with other
    report sections.
    """
    set_metrics(MetricsRegistry())
    engine = InferenceEngine(get_system(BURST_SYSTEM), get_gpt_preset("800M"))
    sampler = TelemetrySampler()
    monitor = SLOMonitor(objective=BURST_OBJECTIVE)
    simulator = ClusterSimulator(
        engine,
        replicas=BURST_REPLICAS,
        batch_cap=4,
        slo=BURST_SLO,
        autoscale=AutoscalePolicy(min_replicas=BURST_MIN_REPLICAS),
        telemetry=sampler,
        slo_monitor=monitor,
    )
    result = simulator.run(
        BurstArrivals(bursts=BURSTS, prompt_tokens=256, generate_tokens=64)
    )
    return result, sampler, monitor


def alert_rows(monitor: SLOMonitor) -> list[dict[str, object]]:
    """One row per fired burn-rate alert (the report's alert table)."""
    rows: list[dict[str, object]] = []
    for alert in monitor.alerts:
        rows.append(
            {
                "rule": alert.rule,
                "fired_at_s": round(alert.fired_at_s, 3),
                "cleared_at_s": (
                    "-" if alert.cleared_at_s is None
                    else round(alert.cleared_at_s, 3)
                ),
                "burn_short": round(alert.burn_rate_short, 1),
                "burn_long": round(alert.burn_rate_long, 1),
            }
        )
    return rows


def series_rows(sampler: TelemetrySampler) -> list[dict[str, object]]:
    """Per-series min/mean/max/last summary of the sampled timeseries."""
    rows: list[dict[str, object]] = []
    for series in sampler.all_series():
        values = series.values()
        if not values:
            continue
        labels = ",".join(f"{k}={v}" for k, v in sorted(series.labels.items()))
        rows.append(
            {
                "series": f"{series.name}[{labels}]" if labels else series.name,
                "samples": len(values),
                "min": round(min(values), 4),
                "mean": round(sum(values) / len(values), 4),
                "max": round(max(values), 4),
                "last": round(values[-1], 4),
            }
        )
    return rows

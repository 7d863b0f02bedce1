"""Telemetry wired through serving, clusters, campaigns, and the CLI."""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis.telemetry import alert_rows, run_burst_scenario, series_rows
from repro.campaign.executor import IsolatingExecutor
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, WorkloadSpec
from repro.campaign.store import JsonlStore
from repro.core.cli import run as cli_run
from repro.engine.inference import InferenceEngine
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer, set_tracer
from repro.obs.telemetry import (
    SLOMonitor,
    TelemetryPlan,
    TelemetrySampler,
    validate_openmetrics,
    write_timeseries_jsonl,
)
from repro.serve import (
    PERCENTILE_MODE_EXACT,
    PERCENTILE_MODE_SKETCH,
    BurstArrivals,
    PoissonArrivals,
    ServingSimulator,
    SLOPolicy,
)
from repro.serve.constants import ALERT_FIRED_EVENT

pytestmark = pytest.mark.telemetry

ARRIVALS = PoissonArrivals(
    rate_per_s=20.0,
    requests=24,
    prompt_tokens=256,
    generate_tokens=24,
    seed=5,
)

BURSTS = BurstArrivals(
    bursts=((0.1, 40),), prompt_tokens=256, generate_tokens=48
)

TIGHT_SLO = SLOPolicy(ttft_s=0.02, e2e_s=0.3)


@pytest.fixture
def engine():
    return InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))


def serve_with_telemetry(engine, *, arrivals=ARRIVALS, slo=None, mode=None):
    sampler = TelemetrySampler()
    monitor = SLOMonitor()
    sim = ServingSimulator(
        engine,
        batch_cap=8,
        slo=slo or SLOPolicy(),
        telemetry=sampler,
        slo_monitor=monitor,
        percentile_mode=mode or PERCENTILE_MODE_EXACT,
    )
    return sim.run(arrivals), sampler, monitor


class TestServeSimulator:
    def test_sampler_records_fleet_series(self, engine):
        served, sampler, _ = serve_with_telemetry(engine)
        names = {s.name for s in sampler.all_series()}
        assert "telemetry_queue_depth" in names
        assert "telemetry_batch_occupancy" in names
        assert "telemetry_kv_utilisation" in names
        assert "telemetry_ttft_rolling_p95_s" in names
        assert sampler.samples_taken > 0

    def test_telemetry_does_not_change_results(self, engine):
        plain = ServingSimulator(engine, batch_cap=8).run(ARRIVALS)
        served, _, _ = serve_with_telemetry(engine)
        assert served.summary.to_dict() == plain.summary.to_dict()

    def test_alerts_reach_result_and_trace(self, engine):
        sink = InMemorySink()
        previous = set_tracer(Tracer(sinks=[sink]))
        try:
            served, _, monitor = serve_with_telemetry(
                engine, arrivals=BURSTS, slo=TIGHT_SLO
            )
        finally:
            set_tracer(previous)
        assert monitor.alerts, "tight SLO under burst load must fire"
        assert served.alerts is not None
        assert served.alerts["alerts"][0]["rule"] == monitor.alerts[0].rule
        fired = [r for r in sink.records if r.get("name") == ALERT_FIRED_EVENT]
        assert fired
        assert fired[0]["attrs"]["rule"] == monitor.alerts[0].rule

    def test_exports_byte_identical_across_runs(self, engine, tmp_path):
        payloads = []
        for name in ("a", "b"):
            _, sampler, _ = serve_with_telemetry(engine)
            path = write_timeseries_jsonl(sampler, tmp_path / f"{name}.jsonl")
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_sketch_mode_tracks_exact_percentiles(self, engine):
        exact, _, _ = serve_with_telemetry(engine, mode=PERCENTILE_MODE_EXACT)
        sketch, _, _ = serve_with_telemetry(engine, mode=PERCENTILE_MODE_SKETCH)
        assert exact.summary.percentile_mode == "exact"
        assert sketch.summary.percentile_mode == "p2"
        # 24 requests: both modes still answer from the exact small-
        # sample path or close to it; p50 must agree within 20%.
        e = exact.summary.to_dict()
        s = sketch.summary.to_dict()
        assert s["ttft_p50_s"] == pytest.approx(e["ttft_p50_s"], rel=0.2)
        assert s["e2e_p50_s"] == pytest.approx(e["e2e_p50_s"], rel=0.2)
        # Non-percentile fields are mode-independent.
        assert s["throughput_tokens_per_s"] == e["throughput_tokens_per_s"]


class TestBurstScenario:
    @pytest.fixture(scope="class")
    def scenario_run(self):
        return run_burst_scenario()

    def test_alerts_fire_under_burst(self, scenario_run):
        result, _, monitor = scenario_run
        assert monitor.alerts
        assert monitor.attainment < 0.5
        assert result.summary.serve.completed > 0

    def test_alert_rows_shape(self, scenario_run):
        _, _, monitor = scenario_run
        rows = alert_rows(monitor)
        assert rows
        assert set(rows[0]) == {
            "rule", "fired_at_s", "cleared_at_s", "burn_short", "burn_long",
        }

    def test_series_rows_shape(self, scenario_run):
        _, sampler, _ = scenario_run
        rows = series_rows(sampler)
        assert rows
        for row in rows:
            assert row["min"] <= row["mean"] <= row["max"]


class TestCampaignSidecars:
    @pytest.fixture(scope="class")
    def spec(self):
        return CampaignSpec(
            name="telemetry-sweep",
            systems=("GH200",),
            workloads=(
                WorkloadSpec.of_kind(
                    "serve",
                    axes={"arrival_rate": (10, 20)},
                    fixed={
                        "requests": "8",
                        "generate_tokens": "16",
                        "prompt_tokens": "128",
                        "slo_ttft_ms": "500",
                    },
                ),
            ),
        )

    def test_sidecars_written_per_workpackage(self, spec, tmp_path):
        telem_dir = tmp_path / "telem"
        runner = CampaignRunner(
            JsonlStore(tmp_path / "store.jsonl"),
            IsolatingExecutor(telemetry=TelemetryPlan(directory=str(telem_dir))),
        )
        report = runner.run(spec)
        assert (report.total, report.failed) == (2, 0)
        jsonl = sorted(telem_dir.glob("*.timeseries.jsonl"))
        om = sorted(telem_dir.glob("*.om"))
        assert len(jsonl) == 2 and len(om) == 2
        for path in om:
            assert validate_openmetrics(path.read_text()) == []
        for row in runner.results(spec):
            assert row.outputs["telemetry_samples"] > 0
            assert row.outputs["slo_alerts_fired"] >= 0

    def test_telemetry_rows_cache_hit_plain_store(self, spec, tmp_path):
        # Telemetry must not enter workpackage identity: a run WITHOUT
        # telemetry fully reuses rows produced WITH it.
        store = JsonlStore(tmp_path / "store.jsonl")
        plan = TelemetryPlan(directory=str(tmp_path / "telem"))
        CampaignRunner(store, IsolatingExecutor(telemetry=plan)).run(spec)
        warm = CampaignRunner(store, IsolatingExecutor()).run(spec)
        assert (warm.executed, warm.cached) == (0, 2)


class TestTelemetryPlan:
    def test_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="directory"):
            TelemetryPlan(directory="")
        with pytest.raises(ConfigError, match="positive"):
            TelemetryPlan(directory="x", interval_s=0.0)

    def test_path_for_sanitises_ids(self):
        plan = TelemetryPlan(directory="out")
        assert plan.path_for("step/a#3", ".om").name == "step_a_3.om"
        assert plan.to_dict() == {"directory": "out", "interval_s": 0.1}

    def test_activate_scopes_and_restores(self):
        from repro.obs.telemetry import activate_telemetry, get_telemetry

        plan = TelemetryPlan(directory="out")
        assert get_telemetry() is None
        with activate_telemetry(plan) as active:
            assert active is plan
            assert get_telemetry() is plan
        assert get_telemetry() is None


class TestServeCli:
    BASE = [
        "serve",
        "--system", "GH200",
        "--rate", "20",
        "--requests", "10",
        "--generate-tokens", "16",
        "--seed", "3",
    ]

    def run_cli(self, args):
        out = io.StringIO()
        code = cli_run(args, stdout=out)
        return code, out.getvalue()

    def test_telemetry_flag_writes_exports(self, tmp_path):
        telem = tmp_path / "telem"
        code, text = self.run_cli(self.BASE + ["--telemetry", str(telem)])
        assert code == 0
        assert "telemetry:" in text
        assert (telem / "serve.timeseries.jsonl").exists()
        om = (telem / "serve.om").read_text()
        assert validate_openmetrics(om) == []

    def test_watch_flag_renders_dashboard(self):
        code, text = self.run_cli(self.BASE + ["--watch"])
        assert code == 0
        assert "== telemetry @" in text

    def test_percentiles_flag_switches_mode(self):
        code, text = self.run_cli(self.BASE + ["--percentiles", "p2"])
        assert code == 0
        assert "p2" in text

    def test_watch_command_replays_export(self, tmp_path):
        telem = tmp_path / "telem"
        self.run_cli(self.BASE + ["--telemetry", str(telem)])
        code, text = self.run_cli(
            ["watch", str(telem / "serve.timeseries.jsonl"), "--frames", "2"]
        )
        assert code == 0
        assert "replayed" in text

    def test_telemetry_exports_deterministic(self, tmp_path):
        payloads = []
        for name in ("a", "b"):
            telem = tmp_path / name
            self.run_cli(self.BASE + ["--telemetry", str(telem)])
            payloads.append(
                (telem / "serve.timeseries.jsonl").read_bytes()
                + (telem / "serve.om").read_bytes()
            )
        assert payloads[0] == payloads[1]

"""The ``--trace`` flag and ``caraml trace`` subcommands, end to end.

Covers the acceptance path: a seeded run traced to Perfetto JSON that
validates against the Trace Event schema, whose summary reproduces the
result table's simulated time and Wh, byte-identically across reruns.
"""

from __future__ import annotations

import io
import json

import pytest
import yaml

from repro.campaign import CampaignRunner, IsolatingExecutor
from repro.campaign.spec import CampaignSpec, WorkloadSpec
from repro.campaign.store import JsonlStore
from repro.core.cli import run as cli_run
from repro.obs.summary import load_trace, summarize
from repro.obs.trace import Tracer, activate
from repro.simcluster.clock import VirtualClock


def invoke(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = cli_run(list(argv), stdout=out)
    return code, out.getvalue()


def result_table(text: str) -> dict[str, str]:
    """Parse the two-space-indented ``key: value`` result lines."""
    values: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("  ") and ":" in line:
            key, _, value = line.strip().partition(":")
            values[key] = value.strip()
    return values


@pytest.fixture
def spec_path(tmp_path):
    spec = {
        "name": "traced-sweep",
        "systems": ["A100"],
        "workloads": [
            {
                "kind": "llm",
                "axes": {"global_batch_size": [256]},
                "fixed": {"exit_duration": "10"},
            }
        ],
    }
    path = tmp_path / "campaign.yaml"
    path.write_text(yaml.safe_dump(spec))
    return path


class TestTracedRun:
    def test_traced_llm_run_validates_and_matches_result_table(self, tmp_path):
        trace = tmp_path / "run.json"
        code, text = invoke(
            "run-llm", "--system", "A100", "--duration", "10", "--trace", str(trace)
        )
        assert code == 0
        assert f"trace: {trace}" in text
        table = result_table(text)

        code, _ = invoke("trace", "validate", str(trace))
        assert code == 0

        summary = summarize(load_trace(trace))
        # The summary reproduces the table's simulated time and energy.
        assert summary.total_time_s == pytest.approx(
            float(table["elapsed_s"]), abs=1e-3
        )
        expected_wh = float(table["energy_per_device_wh"]) * int(table["devices"])
        assert summary.total_energy_wh() == pytest.approx(expected_wh, abs=5e-3)
        # Nested engine spans and per-device power tracks are present.
        assert {"llm/train", "engine/step", "engine/phase"} <= summary.spans.keys()
        assert len(summary.energy_wh()) == int(table["devices"])

    def test_tracing_does_not_change_the_result_table(self, tmp_path):
        _, untraced = invoke("run-llm", "--system", "A100", "--duration", "10")
        _, traced = invoke(
            "run-llm", "--system", "A100", "--duration", "10",
            "--trace", str(tmp_path / "t.json"),
        )
        assert result_table(untraced) == result_table(traced)

    @pytest.mark.parametrize("replicas", ["1", "2"])
    def test_tracing_does_not_change_the_serve_table(self, tmp_path, replicas):
        argv = ("serve", "--system", "GH200", "--requests", "32",
                "--replicas", replicas)
        _, untraced = invoke(*argv)
        _, traced = invoke(*argv, "--trace", str(tmp_path / "serve.json"))
        assert result_table(untraced) == result_table(traced)

    def test_reruns_are_byte_identical(self, tmp_path):
        for name in ("one.json", "two.json"):
            code, _ = invoke(
                "run-llm", "--system", "A100", "--duration", "10",
                "--trace", str(tmp_path / name),
            )
            assert code == 0
        assert (tmp_path / "one.json").read_bytes() == (
            tmp_path / "two.json"
        ).read_bytes()

    def test_summary_command_renders_breakdown(self, tmp_path):
        trace = tmp_path / "run.json"
        invoke("run-llm", "--system", "A100", "--duration", "10", "--trace", str(trace))
        code, text = invoke("trace", "summary", str(trace))
        assert code == 0
        assert "s simulated" in text
        assert "llm/train" in text
        assert "Wh" in text


class TestTracedCampaign:
    def test_campaign_trace_has_workpackage_spans(self, spec_path, tmp_path):
        trace = tmp_path / "campaign.json"
        code, text = invoke(
            "campaign", "run", str(spec_path),
            "--store", str(tmp_path / "rows.jsonl"), "--trace", str(trace),
        )
        assert code == 0
        assert "1 executed" in text
        summary = summarize(load_trace(trace))
        assert {"campaign/step", "jube/workpackage", "llm/train"} <= summary.spans.keys()
        assert summary.total_energy_wh() > 0.0

    def test_serving_rows_equal_untraced_rows(self, tmp_path):
        # A traced campaign runs every workpackage on the tracer's one
        # clock, so each serving run after the first starts mid-clock
        # and must serve its stream from its own start.
        fixed = {"requests": "64", "prompt_tokens": "16", "generate_tokens": "16"}
        spec = CampaignSpec(
            name="traced-serve",
            systems=("GH200",),
            workloads=(
                WorkloadSpec.of_kind("serve", axes={"batch_cap": (4, 8)}, fixed=fixed),
                WorkloadSpec.of_kind(
                    "serve_cluster", axes={"replicas": (1, 2)}, fixed=fixed
                ),
            ),
        )
        untraced = CampaignRunner(
            JsonlStore(tmp_path / "untraced.jsonl"), IsolatingExecutor()
        ).run(spec)
        clock = VirtualClock()
        with activate(Tracer(clock=clock)):
            traced = CampaignRunner(
                JsonlStore(tmp_path / "traced.jsonl"),
                IsolatingExecutor(sleep=clock.advance),
            ).run(spec)
        assert clock.now() > 3 * untraced.rows[0].outputs["elapsed_s"]
        assert len(traced.rows) == 4
        assert [r.canonical() for r in traced.rows] == [
            r.canonical() for r in untraced.rows
        ]

    def test_second_run_traces_cache_hits(self, spec_path, tmp_path):
        store = str(tmp_path / "rows.jsonl")
        invoke("campaign", "run", str(spec_path), "--store", store,
               "--trace", str(tmp_path / "first.json"))
        trace = tmp_path / "second.json"
        code, text = invoke(
            "campaign", "run", str(spec_path), "--store", store, "--trace", str(trace)
        )
        assert code == 0
        assert "1 from cache" in text
        summary = summarize(load_trace(trace))
        assert summary.events.get("campaign/cache_hit") == 1


class TestTraceCommands:
    def test_convert_jsonl_to_perfetto(self, tmp_path):
        log = tmp_path / "run.jsonl"
        invoke("run-llm", "--system", "A100", "--duration", "10", "--trace", str(log))
        converted = tmp_path / "run.json"
        code, text = invoke("trace", "convert", str(log), str(converted))
        assert code == 0
        assert f"wrote {converted}" in text
        code, _ = invoke("trace", "validate", str(converted))
        assert code == 0
        # Both forms summarise to the same simulated time.
        assert summarize(load_trace(log)).total_time_s == pytest.approx(
            summarize(load_trace(converted)).total_time_s
        )

    def test_validate_reports_problems(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X", "name": "a"}]}))
        code, text = invoke("trace", "validate", str(bad))
        assert code == 1
        assert "problems" in text

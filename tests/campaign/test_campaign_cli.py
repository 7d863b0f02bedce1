"""The ``caraml campaign`` subcommand family, end to end."""

from __future__ import annotations

import io
import json

import pytest
import yaml

from repro.campaign.store import JsonlStore
from repro.core.cli import run as cli_run


@pytest.fixture
def spec_path(tmp_path):
    spec = {
        "name": "cli-sweep",
        "systems": ["A100", "GH200"],
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


@pytest.fixture
def crashy_spec_path(tmp_path):
    spec = {
        "name": "cli-crashy",
        "systems": ["A100"],
        "workloads": [
            {
                "kind": "llm",
                "axes": {"global_batch_size": [256, "not-a-number"]},
                "fixed": {"exit_duration": "10"},
            }
        ],
    }
    path = tmp_path / "crashy.yaml"
    path.write_text(yaml.safe_dump(spec))
    return path


def invoke(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = cli_run(list(argv), stdout=out)
    return code, out.getvalue()


class TestCampaignCli:
    def test_run_status_results_cycle(self, spec_path, tmp_path):
        store = str(tmp_path / "rows.jsonl")

        code, text = invoke(
            "campaign", "status", str(spec_path), "--store", store
        )
        assert code == 0
        assert "incomplete" in text

        code, text = invoke(
            "campaign", "run", str(spec_path), "--store", store, "--sequential"
        )
        assert code == 0
        assert "2 workpackages, 2 executed, 0 from cache, 0 failed" in text
        assert store in text

        code, text = invoke(
            "campaign", "status", str(spec_path), "--store", store
        )
        assert code == 0
        assert "2/2 completed" in text
        assert "done" in text

        csv_path = tmp_path / "rows.csv"
        code, text = invoke(
            "campaign", "results", str(spec_path), "--store", store,
            "--csv", str(csv_path),
        )
        assert code == 0
        assert "2 rows" in text
        assert "system=A100" in text
        header = csv_path.read_text().splitlines()[0]
        assert "global_batch_size" in header

    def test_rerun_is_cached(self, spec_path, tmp_path):
        store = str(tmp_path / "rows.jsonl")
        invoke("campaign", "run", str(spec_path), "--store", store, "--sequential")
        code, text = invoke(
            "campaign", "run", str(spec_path), "--store", store, "--sequential"
        )
        assert code == 0
        assert "0 executed, 2 from cache" in text

    def test_failed_workpackage_sets_exit_code(self, crashy_spec_path, tmp_path):
        store = str(tmp_path / "rows.jsonl")
        code, text = invoke(
            "campaign", "run", str(crashy_spec_path), "--store", store,
            "--sequential",
        )
        assert code == 1
        assert "1 failed" in text

        code, text = invoke(
            "campaign", "results", str(crashy_spec_path), "--store", store
        )
        assert code == 0
        assert "error=" in text

        # continue re-runs only the failed row; it crashes again.
        code, text = invoke(
            "campaign", "continue", str(crashy_spec_path), "--store", store,
            "--sequential",
        )
        assert code == 1
        assert "1 executed, 1 from cache, 1 failed" in text

    def test_continue_after_a_torn_append(self, spec_path, tmp_path):
        # A crash mid-append leaves the last row's line unterminated:
        # continue re-executes exactly that workpackage, and the file
        # then reloads clean.
        path = tmp_path / "rows.jsonl"
        store = str(path)
        invoke("campaign", "run", str(spec_path), "--store", store, "--sequential")
        first, last = path.read_text().splitlines(keepends=True)
        path.write_text(first + last[: len(last) // 2])

        code, text = invoke(
            "campaign", "continue", str(spec_path), "--store", store,
            "--sequential",
        )
        assert code == 0
        assert "1 executed, 1 from cache" in text
        assert path.read_text().splitlines(keepends=True) == [first, last]
        assert [row.key for row in JsonlStore(path).rows()] == [
            json.loads(line)["key"] for line in (first, last)
        ]

    def test_store_defaults_to_spec_entry(self, tmp_path):
        store = tmp_path / "from-spec.jsonl"
        spec = {
            "name": "cli-store-default",
            "systems": ["A100"],
            "store": str(store),
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
        code, text = invoke("campaign", "run", str(path), "--sequential")
        assert code == 0
        assert store.exists()

    def test_missing_spec_is_config_error(self, tmp_path):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="no campaign spec"):
            invoke("campaign", "run", str(tmp_path / "nope.yaml"))


@pytest.fixture
def serve_search_spec_path(tmp_path):
    spec = {
        "name": "cli-search",
        "systems": ["A100", "GH200"],
        "workloads": [
            {
                "kind": "serve",
                "axes": {"arrival_rate": [8, 64], "batch_cap": [2, 16]},
                "fixed": {
                    "requests": "64",
                    "generate_tokens": "16",
                    "slo_ttft_ms": "200",
                },
            }
        ],
        "search": {"screen_requests": 16, "rungs": 1, "min_keep": 2},
    }
    path = tmp_path / "search.yaml"
    path.write_text(yaml.safe_dump(spec))
    return path


class TestSearchCli:
    def test_campaign_search_prints_frontier(self, serve_search_spec_path, tmp_path):
        store = str(tmp_path / "rows.jsonl")
        code, text = invoke(
            "campaign", "search", str(serve_search_spec_path),
            "--store", store, "--sequential",
        )
        assert code == 0
        assert "search 'cli-search': 8 configs" in text
        assert "pruned" in text
        assert "frontier:" in text
        assert "request budget:" in text
        assert store in text

    def test_top_level_search_shorthand(self, serve_search_spec_path, tmp_path):
        store = str(tmp_path / "rows.jsonl")
        code, text = invoke(
            "search", str(serve_search_spec_path), "--store", store,
            "--sequential", "--min-keep", "8",
        )
        assert code == 0
        # --min-keep 8 overrides the spec's search section: nothing prunes.
        assert "0 pruned" in text
        assert "8 run in full" in text

    def test_plain_run_ignores_search_section(self, serve_search_spec_path, tmp_path):
        store = str(tmp_path / "rows.jsonl")
        code, text = invoke(
            "campaign", "run", str(serve_search_spec_path), "--store", store,
            "--sequential",
        )
        assert code == 0
        assert "8 workpackages, 8 executed" in text


class TestResultsFormats:
    @pytest.fixture
    def run_store(self, spec_path, tmp_path):
        store = str(tmp_path / "rows.jsonl")
        invoke("campaign", "run", str(spec_path), "--store", store, "--sequential")
        return store

    def test_csv_to_stdout(self, spec_path, run_store):
        code, text = invoke(
            "campaign", "results", str(spec_path), "--store", run_store,
            "--format", "csv",
        )
        assert code == 0
        lines = [line for line in text.splitlines() if line.strip()]
        header, rows = lines[0], lines[1:]
        assert "system" in header and "global_batch_size" in header
        assert len(rows) == 2

    def test_jsonl_to_stdout(self, spec_path, run_store):
        import json

        code, text = invoke(
            "campaign", "results", str(spec_path), "--store", run_store,
            "--format", "jsonl",
        )
        assert code == 0
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        assert len(records) == 2
        for record in records:
            assert "key" in record and "system" in record

    def test_bad_format_rejected(self, spec_path, run_store):
        with pytest.raises(SystemExit):
            invoke(
                "campaign", "results", str(spec_path), "--store", run_store,
                "--format", "xml",
            )


class TestNoTagFlag:
    """A spec declares no tags, so no campaign command takes ``--tag``."""

    @pytest.mark.parametrize(
        "command",
        [
            ("campaign", "run"),
            ("campaign", "continue"),
            ("campaign", "search"),
            ("search",),
        ],
    )
    def test_tag_is_a_usage_error(self, command, spec_path, tmp_path, capsys):
        store = tmp_path / "rows.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            invoke(*command, str(spec_path), "--store", str(store), "--tag", "A100")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tag A100" in capsys.readouterr().err
        assert not store.exists()


def test_misspelled_spec_key_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    from repro.core import cli as caraml_cli

    path = tmp_path / "typo.yaml"
    path.write_text(
        "name: typo\nsytems: [A100]\nworkloads:\n"
        "  - kind: llm\n    axis: {global_batch_size: [64]}\n    fixd: {}\n"
    )
    monkeypatch.setattr("sys.argv", ["caraml", "campaign", "status", str(path)])
    with pytest.raises(SystemExit) as exit_info:
        caraml_cli.main()
    assert exit_info.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "caraml: " in line and "'sytems'" in line

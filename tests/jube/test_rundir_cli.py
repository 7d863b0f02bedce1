"""Tests for persistent run directories and the jube-lite CLI."""

import io
import shutil

import pytest

from repro.core.registry import build_operation_registry
from repro.core.suite import script_path
from repro.errors import JubeError
from repro.jube.cli import main_body
from repro.jube.runner import JubeRunner
from repro.jube.rundir import (
    load_run,
    resolve_run_id,
    run_directory_for,
    save_run,
    update_run,
)
from repro.jube.script import load_script


@pytest.fixture
def script_copy(tmp_path):
    """The IPU LLM script copied into a writable directory."""
    src = script_path("llm_benchmark_ipu.yaml")
    dst = tmp_path / src.name
    shutil.copy(src, dst)
    return dst


@pytest.fixture
def finished_run(script_copy):
    runner = JubeRunner(build_operation_registry())
    script = load_script(script_copy)
    return runner.run(script, tags=["synthetic"])


class TestPersistence:
    def test_save_creates_numbered_directory(self, finished_run, script_copy):
        target = save_run(finished_run, script_copy)
        assert target.name == "000000"
        assert target.parent == run_directory_for(script_copy)
        second = save_run(finished_run, script_copy)
        assert second.name == "000001"

    def test_round_trip_preserves_outputs(self, finished_run, script_copy):
        target = save_run(finished_run, script_copy)
        restored, restored_script = load_run(target)
        assert restored_script == script_copy.resolve()
        assert restored.tags == finished_run.tags
        assert len(restored.workpackages) == len(finished_run.workpackages)
        original = finished_run.packages_for("train")[0]
        loaded = restored.packages_for("train")[0]
        assert loaded.outputs["throughput_tokens_per_s"] == pytest.approx(
            float(original.outputs["throughput_tokens_per_s"])
        )
        assert loaded.stdout == original.stdout

    def test_update_of_an_unchanged_run_rewrites_the_same_bytes(
        self, finished_run, script_copy
    ):
        target = save_run(finished_run, script_copy)
        saved = (target / "run.json").read_bytes()
        update_run(finished_run, target, script_copy)
        assert (target / "run.json").read_bytes() == saved
        restored, restored_script = load_run(target)
        update_run(restored, target, restored_script)
        assert (target / "run.json").read_bytes() == saved

    def test_resolve_last_and_numeric(self, finished_run, script_copy):
        save_run(finished_run, script_copy)
        second = save_run(finished_run, script_copy)
        run_dir = run_directory_for(script_copy)
        assert resolve_run_id(run_dir, "last") == second
        assert resolve_run_id(run_dir, "0").name == "000000"

    def test_resolve_errors(self, tmp_path):
        with pytest.raises(JubeError, match="no run directory"):
            resolve_run_id(tmp_path / "missing")
        empty = tmp_path / "empty_run"
        empty.mkdir()
        with pytest.raises(JubeError, match="no runs"):
            resolve_run_id(empty)

    def test_load_rejects_non_run_directory(self, tmp_path):
        with pytest.raises(JubeError, match="not a JUBE run"):
            load_run(tmp_path)

    def test_load_rejects_corrupt_state(self, finished_run, script_copy):
        target = save_run(finished_run, script_copy)
        (target / "run.json").write_text("{broken")
        with pytest.raises(JubeError, match="corrupt"):
            load_run(target)


class TestJubeLiteCLI:
    def _run(self, argv):
        out = io.StringIO()
        code = main_body(argv, stdout=out)
        return code, out.getvalue()

    def test_full_paper_command_sequence(self, script_copy):
        # jube run ... --tag synthetic
        code, output = self._run(["run", str(script_copy), "--tag", "synthetic"])
        assert code == 0
        assert "stored run in" in output

        run_dir = str(run_directory_for(script_copy))
        # jube continue <run> -i last
        code, output = self._run(["continue", run_dir, "-i", "last"])
        assert code == 0

        # jube result <run> -i last
        code, output = self._run(["result", run_dir, "-i", "last"])
        assert code == 0
        assert "GC200" in output
        assert "496" in output  # Table II's gbs-16384 tokens/Wh

    def test_result_of_specific_run_id(self, script_copy):
        self._run(["run", str(script_copy), "--tag", "synthetic"])
        run_dir = str(run_directory_for(script_copy))
        code, output = self._run(["result", run_dir, "-i", "0"])
        assert code == 0
        assert "GC200" in output

    def test_continue_persists_postprocess_outputs(self, script_copy):
        self._run(["run", str(script_copy), "--tag", "synthetic"])
        run_dir = run_directory_for(script_copy)
        self._run(["continue", str(run_dir)])
        restored, _ = load_run(resolve_run_id(run_dir))
        assert restored.packages_for("postprocess")
        assert "postprocess" in restored.completed_steps

    def test_named_result_table(self, script_copy):
        self._run(["run", str(script_copy), "--tag", "synthetic"])
        run_dir = str(run_directory_for(script_copy))
        code, output = self._run(["result", run_dir, "--table", "throughput"])
        assert code == 0
        assert "tokens_per_wh" in output

"""Tests for the CaramlSuite API and the caraml CLI."""

import io

import pytest

from repro.core.cli import run as cli_run
from repro.core.suite import SHIPPED_SCRIPTS, CaramlSuite, script_path
from repro.errors import JubeError


@pytest.fixture(scope="module")
def suite():
    return CaramlSuite()


class TestSuiteAPI:
    def test_systems(self, suite):
        assert suite.systems() == ("JEDI", "GH200", "H100", "WAIH100", "MI250", "GC200", "A100")

    def test_run_llm(self, suite):
        result = suite.run_llm("A100", global_batch_size=64, exit_duration_s=15)
        assert result.system_tag == "A100"

    def test_run_resnet(self, suite):
        result = suite.run_resnet("H100", global_batch_size=64)
        assert result.system_tag == "H100"

    def test_shipped_script_lookup(self):
        for name in SHIPPED_SCRIPTS:
            assert script_path(name).exists()
        with pytest.raises(JubeError):
            script_path("missing.yaml")

    def test_jube_run_with_tag(self, suite):
        run = suite.jube_run("resnet50_benchmark.xml", tags=["GC200"])
        table = suite.jube_result(run, "throughput")
        assert "GC200" in table
        # all 8 batch sizes of the script appear
        assert table.count("GC200") == 8

    def test_jube_continue_postprocessing(self, suite):
        run = suite.jube_run("resnet50_benchmark.xml", tags=["GC200"])
        assert run.packages_for("postprocess") == []
        suite.jube_continue(run)
        energy_table = suite.jube_result(run, "energy")
        assert "combined_energy_wh" in energy_table

    def test_jube_container_tag_adds_step(self, suite):
        run = suite.jube_run("resnet50_benchmark.xml", tags=["GC200", "container"])
        assert len(run.packages_for("container")) >= 1


class TestCLI:
    def _run(self, argv):
        out = io.StringIO()
        code = cli_run(argv, stdout=out)
        return code, out.getvalue()

    def test_systems_command(self):
        code, output = self._run(["systems"])
        assert code == 0
        for tag in ("JEDI", "GC200", "A100"):
            assert tag in output

    def test_run_llm_command(self):
        code, output = self._run(
            ["run-llm", "--system", "A100", "--gbs", "64", "--duration", "15"]
        )
        assert code == 0
        assert "throughput_tokens_per_s" in output

    def test_run_resnet_command(self):
        code, output = self._run(["run-resnet", "--system", "GC200", "--gbs", "64"])
        assert code == 0
        assert "images_per_s" in output

    def test_jube_run_command(self):
        code, output = self._run(
            ["jube", "run", "llm_benchmark_ipu.yaml", "--tag", "synthetic"]
        )
        assert code == 0
        assert "GC200" in output

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            self._run(["run-llm", "--system", "TPU"])

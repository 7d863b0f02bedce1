"""CaramlSuite: the high-level public API.

Two usage levels, mirroring the real suite:

* direct: ``CaramlSuite().run_llm(...)`` / ``run_resnet(...)`` execute
  single benchmark points and return :class:`TrainResult` rows,
* JUBE: ``suite.jube_run("llm_benchmark_nvidia_amd.yaml", tags=["A100"])``
  executes a shipped (or user-provided) benchmark script through the
  workflow engine, exactly like ``jube run ... --tag A100``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.config import LLMBenchmarkConfig, ResNetBenchmarkConfig
from repro.core.llm_training import run_llm_benchmark
from repro.core.registry import build_operation_registry
from repro.core.resnet50 import run_resnet_benchmark
from repro.engine.trainer import TrainResult
from repro.errors import JubeError
from repro.hardware.systems import SYSTEM_TAGS
from repro.jube.runner import JubeRun, JubeRunner
from repro.jube.script import BenchmarkScript, load_script

_SCRIPT_DIR = Path(__file__).parent / "scripts"

#: Scripts shipped with the suite (paper Appendix file names).
SHIPPED_SCRIPTS = (
    "llm_benchmark_nvidia_amd.yaml",
    "llm_benchmark_ipu.yaml",
    "resnet50_benchmark.xml",
)


def script_path(name: str) -> Path:
    """Path of a shipped benchmark script by file name."""
    path = _SCRIPT_DIR / name
    if not path.exists():
        raise JubeError(
            f"unknown shipped script {name!r}; shipped: {', '.join(SHIPPED_SCRIPTS)}"
        )
    return path


class CaramlSuite:
    """Entry point to the CARAML reproduction."""

    def __init__(self) -> None:
        self.registry = build_operation_registry()
        self.runner = JubeRunner(self.registry)

    # -- direct benchmark execution -----------------------------------------

    def run_llm(self, system: str, **options) -> TrainResult:
        """Run one LLM benchmark point.

        ``options`` are :class:`LLMBenchmarkConfig` fields
        (``global_batch_size=...``); the config defaults the rest.
        """
        return run_llm_benchmark(LLMBenchmarkConfig(system, **options))

    def run_resnet(self, system: str, **options) -> TrainResult:
        """Run one ResNet benchmark point.

        ``options`` are :class:`ResNetBenchmarkConfig` fields
        (``global_batch_size=...``); the config defaults the rest.
        """
        return run_resnet_benchmark(ResNetBenchmarkConfig(system, **options))

    # -- JUBE workflow --------------------------------------------------------

    def load_script(self, name_or_path: str | Path) -> BenchmarkScript:
        """Load a shipped script by name or any script by path."""
        p = Path(name_or_path)
        if p.exists():
            return load_script(p)
        return load_script(script_path(str(name_or_path)))

    def jube_run(
        self, name_or_path: str | Path, tags: list[str] | tuple[str, ...] = ()
    ) -> JubeRun:
        """``jube run <script> --tag ...``."""
        script = self.load_script(name_or_path)
        return self.runner.run(script, tags)

    def jube_continue(self, run: JubeRun) -> JubeRun:
        """``jube continue`` (post-processing steps)."""
        return self.runner.continue_run(run)

    def jube_result(self, run: JubeRun, table: str | None = None) -> str:
        """``jube result``: the compact result table."""
        return self.runner.result(run, table)

    # -- introspection -----------------------------------------------------------

    @staticmethod
    def systems() -> tuple[str, ...]:
        """The Table I system tags."""
        return SYSTEM_TAGS

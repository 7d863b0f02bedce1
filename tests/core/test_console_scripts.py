"""The console scripts turn user errors into one line and exit code 2."""

from __future__ import annotations

import sys

import pytest

from repro.core import cli as caraml_cli
from repro.core.registry import build_operation_registry
from repro.errors import ConfigError
from repro.jpwr import cli as jpwr_cli
from repro.jube.steps import Step, Workpackage

#: Invocations whose output path runs through a regular file ``{F}``.
UNWRITABLE_OUTPUTS = {
    "report": (caraml_cli, "caraml", "report --out {F}/r.md"),
    "serve": (
        caraml_cli, "caraml", "serve --system GH200 --requests 4 --requests-json {F}/x.json"
    ),
    "run-llm": (caraml_cli, "caraml", "run-llm --system A100 --trace {F}/t.json"),
    "continuous": (caraml_cli, "caraml", "continuous record --baseline {F}/b.json"),
    "jpwr": (jpwr_cli, "jpwr", "--methods pynvml --load 0.5:2 --df-out {F}/out"),
}


def _exit_code(module, argv: str, monkeypatch) -> int:
    monkeypatch.setattr(sys, "argv", [module.__name__, *argv.split()])
    with pytest.raises(SystemExit) as exc:
        module.main()
    return exc.value.code


@pytest.mark.parametrize("name", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_path_exits_2_without_traceback(
    name, tmp_path, monkeypatch, capsys
):
    module, prog, argv = UNWRITABLE_OUTPUTS[name]
    blocker = tmp_path / "F"
    blocker.write_text("a regular file, not a directory")
    assert _exit_code(module, argv.format(F=blocker), monkeypatch) == 2
    err = capsys.readouterr().err
    assert f"{prog}: " in err and str(blocker) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, option",
    [
        ("powercap frontier --gbs 0", "batch sizes"),
        ("powercap frontier --duration 0", "duration"),
        ("powercap schedule --budget -1", "budget"),
        ("powercap schedule --attainment-goal 2", "attainment goal"),
        ("powercap schedule --attainment-goal 0", "attainment goal"),
        ("powercap schedule --attainment-goal -0.5", "attainment goal"),
        ("powercap schedule --budget 0.002 --horizon -5", "horizon"),
        ("powercap schedule --horizon -5", "horizon"),
        ("powercap schedule --requests 0", "requests"),
        ("powercap schedule --rate -1", "rate"),
        ("powercap defer {F}/spec.yaml --store {F}/s.jsonl --horizon -5", "horizon"),
    ],
)
def test_powercap_frontier_rejects_non_positive_options(
    argv, option, tmp_path, monkeypatch, capsys
):
    (tmp_path / "spec.yaml").write_text(
        "name: defer\nsystems: [A100]\nworkloads:\n  - kind: resnet\n"
    )
    assert _exit_code(caraml_cli, argv.format(F=tmp_path), monkeypatch) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "caraml: " in line and option in line
    assert "Traceback" not in line


#: ``caraml serve`` flags with an out-of-range value, and the flag the
#: error names.  0 keeps its meaning for each of them but ``--replicas``.
OUT_OF_RANGE_SERVE_FLAGS = {
    "--replicas 0": "--replicas",
    "--replicas -2": "--replicas",
    "--slo-ttft-ms -5": "--slo-ttft-ms",
    "--slo-e2e-ms -1": "--slo-e2e-ms",
    "--replicas 3 --sessions -1": "--sessions",
}


def _serve_error(flags: str, monkeypatch, capsys) -> str:
    """The one stderr line of a ``caraml serve`` that must exit 2."""
    argv = f"serve --system GH200 --requests 16 {flags}"
    assert _exit_code(caraml_cli, argv, monkeypatch) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "Traceback" not in line
    return line


@pytest.mark.parametrize("flags", sorted(OUT_OF_RANGE_SERVE_FLAGS))
def test_serve_rejects_out_of_range_values_naming_the_flag(
    flags, monkeypatch, capsys
):
    line = _serve_error(flags, monkeypatch, capsys)
    assert f"caraml: {OUT_OF_RANGE_SERVE_FLAGS[flags]} must be" in line


def test_serve_operation_fails_with_the_command_message(monkeypatch, capsys):
    line = _serve_error("--slo-ttft-ms -5", monkeypatch, capsys)
    wp = Workpackage(step=Step(name="serve"), parameters={}, index=0)
    with pytest.raises(ConfigError) as exc:
        build_operation_registry().dispatch(
            "llm_serve_cluster --system GH200 --rate 8 --slo-ttft-ms -5", wp
        )
    assert line.endswith(f"caraml: {exc.value}")


def test_successful_run_exits_0(monkeypatch, capsys):
    assert _exit_code(caraml_cli, "systems", monkeypatch) == 0
    assert "JEDI" in capsys.readouterr().out


#: ``caraml jube run`` invocations that must fail before the first
#: step, and the words their one error line must contain.
JUBE_RUN_ERRORS = {
    "jube run llm_benchmark_nvidia_amd.yaml": ("--tag", "A100"),
    "jube run llm_benchmark_nvidia_amd.yaml --tag foo": ("--tag", "A100"),
    "jube run resnet50_benchmark.xml": ("--tag", "A100", "GC200"),
    "jube run llm_benchmark_nvidia_amd.yaml --tag A100 --table typo": (
        "'typo'", "throughput", "energy",
    ),
}


@pytest.mark.parametrize("argv", list(JUBE_RUN_ERRORS))
def test_jube_run_names_the_remedy(argv, monkeypatch, capsys):
    assert _exit_code(caraml_cli, argv, monkeypatch) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "caraml: " in line and "Traceback" not in line
    assert all(word in line for word in JUBE_RUN_ERRORS[argv])

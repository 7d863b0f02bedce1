"""Self-tests of the benchmark harness at tiny size.

Run from the root of a checkout::

    python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HOSTBENCH = Path(__file__).resolve().parents[1]
ROOT = HOSTBENCH.parent
sys.path[:0] = [str(HOSTBENCH), str(ROOT / "src")]

import run  # noqa: E402
from layers import LAYER_METRICS, instrument  # noqa: E402
from tracer import PHASE, LayerTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "hostbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _untraced(_name):
    return contextlib.nullcontext()


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit) for m in LAYER_METRICS
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_prints_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        named = WORKLOADS[workload].named
        for name, unit in named.items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in done.stdout.splitlines()), name
    else:
        assert result["metrics"]["bench.layer_coverage"]["value"] >= 0.9


def test_a_tampered_digest_fails_the_operation(tmp_path):
    workload = WORKLOADS["serve"](3, "tiny", tmp_path)
    clean = workload.round(_untraced)
    run.Checker(workload, {})(clean)
    assert not any(op.problems for op in clean)
    recorded = {op.kind: op.digest for op in clean}
    ops = workload.round(_untraced)
    run.Checker(workload, recorded)(ops)
    assert not any(op.problems for op in ops)
    recorded["fleet"] = "0" * 16
    ops = workload.round(_untraced)
    run.Checker(workload, recorded)(ops)
    assert [op.kind for op in ops if op.problems] == ["fleet"]
    assert "recorded" in ops[1].problems[0]


def test_a_broken_invariant_fails_the_operation(tmp_path):
    workload = WORKLOADS["serve"](3, "tiny", tmp_path)
    ops = workload.round(_untraced)
    summary = ops[0].result.summary
    object.__setattr__(summary, "rejected", summary.rejected + 1)
    run.Checker(workload, {})(ops)
    assert "conservation" in ops[0].problems[0]


def test_layer_self_times_and_other_sum_to_the_traced_wall_time(tmp_path):
    tracer = LayerTracer()
    instrumentation = instrument(tracer)
    instrumentation.install()
    try:
        workload = WORKLOADS["serve"](3, "tiny", tmp_path)
        workload.round(lambda name: tracer.span(PHASE + name))
    finally:
        instrumentation.uninstall()
    assert tracer.wall_s > 0
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.wall_s, rel=1e-9)
    assert tracer.self_s["other"] < 0.2 * tracer.wall_s
    # (b) and (c) integrate energy analytically: no jpwr samples there.
    assert set(tracer.calls_by_phase("MeasuredScope.sample")) == {"engine"}
    from repro.serve.result import summarize

    assert not hasattr(summarize, "__wrapped__")


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HOSTBENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

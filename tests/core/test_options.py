"""Operation option tables: parsing, rejection and the front ends they feed."""

from __future__ import annotations

import io
import re

import pytest
import yaml

from repro.campaign import open_store
from repro.campaign.batch import stream_spec_for_item
from repro.core.cli import build_parser
from repro.core.cli import run as cli_run
from repro.core.options import LLM_SERVE, OPERATION_OPTIONS, Option, parse_options
from repro.core.registry import build_operation_registry
from repro.core.suite import CaramlSuite
from repro.engine.calibration import SystemCalibration
from repro.errors import JubeError
from repro.hardware.accelerator import get_accelerator
from repro.hardware.cpu import get_cpu
from repro.hardware.custom import temporary_system
from repro.hardware.interconnect import LinkTechnology, get_link
from repro.hardware.node import NodeSpec
from repro.jube.runner import WorkItem
from repro.jube.steps import Step, Workpackage
from repro.serve import ServingSimulator
from repro.serve.cluster import ClusterSimulator
from repro.units import gb

#: Bad commands and the option each must be rejected for.
BAD_COMMANDS = {
    "llm_serve --system GH200 --rate 4 --reqests 10": "--reqests",
    "llm_train --system A100 --gbs 64 --duraton 5": "--duraton",
    "llm_train --system A100 --gbs abc": "--gbs",
    "resnet_train --system A100 --gbs 64 --amd-variant gcdd": "--amd-variant",
    "llm_serve_cluster --system GH200 --replicas 2": "--rate",
    "pull_container --system A100 --framework jax": "--framework",
}

#: The option names each operation read before the tables existed.
ACCEPTED_OPTION_NAMES = {
    "pull_container": {"system", "framework"},
    "prepare_data": {"synthetic"},
    "llm_train": {
        "system", "model", "gbs", "mbs", "duration", "amd-variant",
        "synthetic", "power-cap",
    },
    "resnet_train": {
        "system", "model", "gbs", "devices", "amd-variant", "synthetic",
        "power-cap",
    },
    "llm_serve": {
        "system", "model", "rate", "requests", "batch-cap", "queue-cap",
        "prompt-tokens", "generate-tokens", "spread", "seed", "slo-ttft-ms",
        "slo-e2e-ms", "percentiles", "power-cap",
    },
    "analyse": {"patterns"},
    "combine_energy": set(),
}
ACCEPTED_OPTION_NAMES["llm_serve_cluster"] = ACCEPTED_OPTION_NAMES["llm_serve"] | {
    "replicas", "router", "sessions", "prefix-tokens", "autoscale",
    "min-replicas", "prefill-replicas", "decode-replicas",
}

#: The flags of the caraml commands built from the tables.
COMMAND_FLAGS = {
    "run-llm": {
        "system", "model", "gbs", "mbs", "duration", "amd-variant",
        "power-cap", "trace", "faults",
    },
    "run-resnet": {
        "system", "model", "gbs", "devices", "amd-variant", "synthetic",
        "binding", "power-cap", "trace", "faults",
    },
    "serve": ACCEPTED_OPTION_NAMES["llm_serve_cluster"]
    | {"requests-json", "telemetry", "watch", "trace", "faults"},
}


def _dispatch(command: str) -> Workpackage:
    wp = Workpackage(step=Step(name="options"), parameters={}, index=0)
    build_operation_registry().dispatch(command, wp)
    return wp


class TestParseOptions:
    TABLE = (
        Option("system"),
        Option("count", int, 3),
        Option("ratio", float, 0.5),
        Option("mode", default="a", choices=("a", "b")),
        Option("flag", bool, False, field="switched_on"),
    )

    def test_defaults_fill_omitted_options_keyed_by_field(self):
        assert parse_options("op", self.TABLE, {"system": "X"}) == {
            "system": "X",
            "count": 3,
            "ratio": 0.5,
            "mode": "a",
            "switched_on": False,
        }

    def test_values_are_typed(self):
        values = parse_options(
            "op",
            self.TABLE,
            {"system": "X", "count": "7", "ratio": "2", "mode": "b", "flag": "true"},
        )
        assert values["count"] == 7 and isinstance(values["ratio"], float)
        assert values["mode"] == "b" and values["switched_on"] is True

    def test_a_switch_is_on_only_when_spelled_true(self):
        for raw in ("false", "yes", "1"):
            values = parse_options("op", self.TABLE, {"system": "X", "flag": raw})
            assert values["switched_on"] is False

    @pytest.mark.parametrize(
        "args,problem",
        [
            ({"system": "X", "cuont": "1"}, "unknown option --cuont"),
            ({}, "missing required option --system"),
            ({"system": "X", "count": "1.5"}, "--count expects int, got '1.5'"),
            ({"system": "X", "mode": "c"}, "--mode expects a|b, got 'c'"),
        ],
    )
    def test_rejection_names_operation_option_and_known_options(self, args, problem):
        with pytest.raises(JubeError) as info:
            parse_options("op", self.TABLE, args)
        message = str(info.value)
        assert message.startswith(f"op: {problem}")
        assert "known options: --system, --count, --ratio, --mode, --flag" in message

    def test_partial_leaves_missing_required_options_out(self):
        assert "system" not in parse_options("op", self.TABLE, {}, partial=True)


class TestOperationsRejectBadOptions:
    @pytest.mark.parametrize("command", sorted(BAD_COMMANDS))
    def test_bad_option_raises_naming_it(self, command):
        operation = command.split()[0]
        with pytest.raises(JubeError, match=f"^{operation}: .*{BAD_COMMANDS[command]}"):
            _dispatch(command)

    def test_campaign_with_bad_options_fails_those_workpackages(self, tmp_path):
        commands = sorted(BAD_COMMANDS)
        workloads = [
            {
                "name": f"bad{i}",
                "operations": [re.sub(r"--system \S+", "--system $system", command)],
            }
            for i, command in enumerate(commands)
        ]
        workloads.append(
            {"name": "good", "operations": ["prepare_data --synthetic true"]}
        )
        store = tmp_path / "bad.campaign.jsonl"
        path = tmp_path / "bad.yaml"
        path.write_text(
            yaml.safe_dump(
                {"name": "bad", "systems": ["GH200"], "workloads": workloads}
            )
        )
        out = io.StringIO()
        code = cli_run(
            ["campaign", "run", str(path), "--sequential", "--store", str(store)],
            stdout=out,
        )
        assert code == 1
        with open_store(store) as rows:
            by_step = {row.step: row for row in rows.query(campaign="bad")}
        assert by_step.pop("good").completed
        for i, command in enumerate(commands):
            row = by_step[f"bad{i}"]
            assert not row.completed
            assert row.error.startswith("JubeError")
            assert BAD_COMMANDS[command] in row.error

    def test_each_operation_accepts_the_names_it_always_read(self):
        names = {
            operation: {option.name for option in options}
            for operation, options in OPERATION_OPTIONS.items()
        }
        assert names == ACCEPTED_OPTION_NAMES
        assert set(build_operation_registry().names()) == set(OPERATION_OPTIONS)


class TestCliFlags:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_commands_keep_their_flags(self, command):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        flags = {
            opt[2:]
            for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        assert flags == COMMAND_FLAGS[command]


def _custom_node():
    return NodeSpec(
        name="Custom H100 quad-node",
        jube_tag="CUSTOMOPT",
        accelerator=get_accelerator("H100-SXM5"),
        accelerators_per_node=4,
        cpu=get_cpu("EPYC-7742"),
        cpu_sockets=2,
        cpu_memory_bytes=gb(512),
        cpu_accel_link=get_link(LinkTechnology.PCIE_GEN5),
        accel_accel_link=get_link(LinkTechnology.NVLINK4),
        internode_link=get_link(LinkTechnology.NONE),
        package_tdp_watts=700.0,
    )


def test_registered_system_runs_through_suite_and_operation():
    calibration = SystemCalibration(mfu_llm=0.25, mfu_cnn=0.06, cnn_batch_half=8.0)
    with temporary_system(_custom_node(), calibration):
        result = CaramlSuite().run_llm(
            "CUSTOMOPT", global_batch_size=64, exit_duration_s=10
        )
        wp = _dispatch("llm_train --system CUSTOMOPT --gbs 64 --duration 10")
    assert result.devices == 4
    assert wp.outputs["status"] == "OK"
    assert wp.outputs["throughput_tokens_per_s"] == round(result.throughput, 2)


class _Built(Exception):
    """Raised by a stand-in ``run`` once it has seen the arrivals."""


@pytest.mark.parametrize(
    "command",
    [
        "llm_serve --system GH200 --rate 4",
        "llm_serve --system GH200 --rate 6 --requests 40 --spread 0.2 --seed 9",
        "llm_serve_cluster --system GH200 --rate 5 --requests 24 --prompt-tokens 256",
        "llm_serve_cluster --system GH200 --rate 5 --sessions 3 --prefix-tokens 64",
    ],
)
def test_planned_stream_is_the_one_the_operation_builds(monkeypatch, command):
    built = []

    def run(self, arrivals):
        built.append(arrivals)
        raise _Built

    monkeypatch.setattr(ServingSimulator, "run", run)
    monkeypatch.setattr(ClusterSimulator, "run", run)
    with pytest.raises(_Built):
        _dispatch(command)
    step = Step(name="serve", operations=(command,))
    item = WorkItem(step=step, parameters={}, index=0)
    assert stream_spec_for_item(item) == built[0]


def test_llm_serve_has_no_cluster_options():
    assert {option.name for option in LLM_SERVE} == ACCEPTED_OPTION_NAMES["llm_serve"]

"""The ``caraml serve`` subcommand: output, records file, determinism."""

from __future__ import annotations

import inspect
import io
import json

import pytest

import repro.serve
import repro.serve.cluster
from repro.campaign.spec import BUILTIN_KINDS
from repro.core.cli import build_parser
from repro.core.cli import run as cli_run
from repro.core.config import LLMBenchmarkConfig, ResNetBenchmarkConfig
from repro.core.options import OPERATION_OPTIONS
from repro.core.registry import build_operation_registry
from repro.jube.runner import parse_operation
from repro.jube.steps import Step, Workpackage

pytestmark = pytest.mark.serve

BASE_ARGS = [
    "serve",
    "--system",
    "GH200",
    "--rate",
    "10",
    "--requests",
    "12",
    "--batch-cap",
    "8",
    "--generate-tokens",
    "24",
    "--seed",
    "3",
]


def run_cli(args) -> tuple[int, str]:
    out = io.StringIO()
    code = cli_run(args, stdout=out)
    return code, out.getvalue()


class TestServeCommand:
    def test_prints_result_row(self):
        code, text = run_cli(BASE_ARGS)
        assert code == 0
        assert "GH200" in text
        assert "llm-serve-800M" in text

    def test_writes_deterministic_records_json(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        code_a, _ = run_cli(BASE_ARGS + ["--requests-json", str(path_a)])
        code_b, _ = run_cli(BASE_ARGS + ["--requests-json", str(path_b)])
        assert code_a == 0 and code_b == 0
        assert path_a.read_bytes() == path_b.read_bytes()
        records = json.loads(path_a.read_text())
        assert len(records) == 12
        assert all(r["ttft_s"] > 0 for r in records)

    def test_seed_changes_records(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        run_cli(BASE_ARGS + ["--requests-json", str(path_a)])
        other = [a if a != "3" else "4" for a in BASE_ARGS]
        run_cli(other + ["--requests-json", str(path_b)])
        assert path_a.read_bytes() != path_b.read_bytes()

    def test_slo_flags_accepted(self):
        code, text = run_cli(BASE_ARGS + ["--slo-ttft-ms", "500", "--slo-e2e-ms", "5000"])
        assert code == 0

    def test_trace_export_validates(self, tmp_path):
        trace = tmp_path / "serve.json"
        code, _ = run_cli(BASE_ARGS + ["--trace", str(trace)])
        assert code == 0
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"] if isinstance(doc, dict) else doc
        names = {e.get("name") for e in events}
        assert "serve/run" in names
        assert "serve/request" in names


class _Constructed(Exception):
    """Raised by a stand-in simulator once it has seen its arguments."""


def _registry_kwargs(monkeypatch, module, name: str, command: str) -> dict:
    """The keyword arguments a serve operation constructs ``name`` with."""
    seen: dict = {}

    def capture(engine, **kwargs):
        seen.update(kwargs)
        raise _Constructed

    monkeypatch.setattr(module, name, capture)
    wp = Workpackage(step=Step(name="serve"), parameters={}, index=0)
    with pytest.raises(_Constructed):
        build_operation_registry().dispatch(command, wp)
    return seen


#: Operation -> (caraml argv that omits every optional flag, the config
#: or simulator its options feed, the campaign kind that templates it).
FRONT_ENDS = {
    "llm_train": (["run-llm", "--system", "A100"], LLMBenchmarkConfig, "llm"),
    "resnet_train": (
        ["run-resnet", "--system", "A100"],
        ResNetBenchmarkConfig,
        "resnet",
    ),
    "llm_serve": (
        ["serve", "--system", "GH200"],
        repro.serve.ServingSimulator,
        "serve",
    ),
    "llm_serve_cluster": (
        ["serve", "--system", "GH200"],
        repro.serve.cluster.ClusterSimulator,
        "serve_cluster",
    ),
}

#: The only defaults that differ between front ends, with the values
#: each source resolves to (None: the operation requires the option).
DEFAULT_EXCEPTIONS = {
    # The operations require a batch size; the CLI uses the config's.
    ("llm_train", "gbs"): {"operation": None, "cli": 256, "library": 256},
    ("resnet_train", "gbs"): {"operation": None, "cli": 256, "library": 256},
    # The operations require a rate; the CLI and the serve kinds use 8.
    ("llm_serve", "rate"): {"operation": None, "cli": 8.0, "kind": 8.0},
    ("llm_serve_cluster", "rate"): {"operation": None, "cli": 8.0, "kind": 8.0},
    # caraml serve --replicas 1 selects the single engine.
    ("llm_serve_cluster", "replicas"): {
        "operation": 2,
        "cli": 1,
        "library": 2,
        "kind": 2,
    },
    # The llm campaign kind runs 30 s points, not the 120 s default.
    ("llm_train", "duration"): {
        "operation": 120.0,
        "cli": 120.0,
        "library": 120.0,
        "kind": 30.0,
    },
}


def _option_defaults(operation: str, option) -> dict:
    """What each front end resolves an omitted option to."""
    found = {"operation": option.default}
    if operation not in FRONT_ENDS:
        return found
    argv, library, kind = FRONT_ENDS[operation]
    cli = vars(build_parser().parse_args(argv))
    if option.dest in cli:
        found["cli"] = cli[option.dest]
    parameter = inspect.signature(library).parameters.get(option.field)
    if parameter is not None and parameter.default is not inspect.Parameter.empty:
        # A switch feeds a policy object: no object means switched off.
        off = option.type is bool and parameter.default is None
        found["library"] = False if off else parameter.default
    templates, defaults = BUILTIN_KINDS[kind]
    _, template_args = parse_operation(templates[0])
    reference = template_args.get(option.name, "").lstrip("$")
    if reference in defaults:
        found["kind"] = option.parse(defaults[reference])
    return found


class TestDefaults:
    @pytest.mark.parametrize(
        "operation,flag",
        [
            (operation, option.name)
            for operation, options in OPERATION_OPTIONS.items()
            for option in options
            if option.name != "system"  # required by every op and command
        ],
    )
    def test_every_option_agrees(self, operation, flag):
        # Each option is declared once, in its operation's table: the
        # caraml flag, the operation, the config or simulator parameter
        # the option feeds and the campaign kind's template string all
        # resolve an omitted option to that default.
        (option,) = [o for o in OPERATION_OPTIONS[operation] if o.name == flag]
        found = _option_defaults(operation, option)
        expected = DEFAULT_EXCEPTIONS.get((operation, flag))
        if expected is not None:
            assert found == expected
            return
        assert all(value == option.default for value in found.values()), found

    @pytest.mark.parametrize(
        "flag,param",
        [
            ("batch_cap", "batch_cap"),
            ("queue_cap", "queue_capacity"),
            ("router", "router"),
        ],
    )
    def test_cli_registry_and_library_agree(self, monkeypatch, flag, param):
        # One declared default per knob: ``caraml serve``, the llm_serve
        # and llm_serve_cluster operations and both simulators must all
        # resolve an omitted option to the same value.
        cli = getattr(build_parser().parse_args(["serve", "--system", "GH200"]), flag)
        found = {"cli": cli}
        simulators = {"cluster": (repro.serve.cluster, "ClusterSimulator")}
        if param != "router":
            simulators["single"] = (repro.serve, "ServingSimulator")
        for kind, (module, name) in simulators.items():
            library = inspect.signature(getattr(module, name)).parameters
            found[f"{kind} library"] = library[param].default
            op = "llm_serve_cluster" if kind == "cluster" else "llm_serve"
            found[f"{kind} registry"] = _registry_kwargs(
                monkeypatch, module, name, f"{op} --system GH200 --rate 4"
            )[param]
        assert len(set(found.values())) == 1, found

    def test_engine_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["serve", "--system", "GH200", "--engine", "fast"]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

"""Golden: what every front end resolves its options to.

``caraml run-llm``/``run-resnet``/``serve``, the ``CaramlSuite`` methods
and the JUBE operations all turn user options into the same few library
objects.  This golden pins, per front-end invocation, the resolved
arguments of every :class:`LLMBenchmarkConfig`,
:class:`ResNetBenchmarkConfig`, :class:`ServingSimulator`,
:class:`ClusterSimulator`, :class:`PoissonArrivals` and
:class:`SessionArrivals` it constructs (defaults applied, so passing a
default explicitly and omitting it record the same thing).  A second
golden pins the result keys and rows of a campaign using each built-in
workload kind at its defaults: stored campaign rows are only reusable
while those stay put.  The ``caraml powercap`` cases pin the
:class:`PowercapScenario` or :class:`ServeCapScenario` each invocation
builds and the arguments it passes to :func:`energy_aware_schedule`,
stopping before any sweep runs.  The ``powercap defer``, ``continuous
check`` and ``run-infer`` cases pin the arguments of the one library
call each command feeds.  Regenerate deliberately with::

    pytest tests/core/test_front_end_golden.py --update-goldens

and review the diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import io
import json
from pathlib import Path

import pytest

from repro.analysis import powercap
from repro.analysis.powercap import PowercapScenario, ServeCapScenario
from repro.campaign import CampaignRunner, CampaignSpec, IsolatingExecutor, open_store
from repro.campaign import energysched
from repro.core.cli import run as cli_run
from repro.core.config import LLMBenchmarkConfig, ResNetBenchmarkConfig
from repro.core.continuous import BenchmarkPoint, Comparison, ContinuousBenchmark
from repro.core.registry import build_operation_registry
from repro.core.suite import CaramlSuite
from repro.engine.inference import InferenceEngine, InferenceWorkload
from repro.jube.steps import Step, Workpackage
from repro.serve import PoissonArrivals, ServingSimulator, SessionArrivals
from repro.serve.cluster import ClusterSimulator

GOLDEN_DIR = Path(__file__).parent / "goldens"

_SERVE_FULL = (
    "--model 117M --rate 4 --requests 20 --batch-cap 8 --queue-cap 100 "
    "--prompt-tokens 256 --generate-tokens 64 --spread 0.2 --seed 5 "
    "--slo-ttft-ms 200 --slo-e2e-ms 3000 --percentiles p2 --power-cap 400"
)
_CLUSTER_FULL = (
    "--model 117M --rate 6 --requests 24 --replicas 3 --router least-loaded "
    "--batch-cap 8 --queue-cap 100 --prompt-tokens 256 --generate-tokens 64 "
    "--spread 0.1 --seed 2 --slo-ttft-ms 150 --slo-e2e-ms 2500 "
    "--percentiles p2 --power-cap 500"
)
_SESSIONS = (
    "--rate 5 --requests 18 --sessions 3 --prefix-tokens 128 "
    "--prompt-tokens 320 --generate-tokens 40 --seed 4"
)

#: CLI invocations: case name -> argv.
CLI_CASES = {
    "cli run-llm minimal": "run-llm --system A100",
    "cli run-llm full": (
        "run-llm --system MI250 --model 13B --gbs 128 --mbs 2 --duration 10 "
        "--amd-variant gpu --power-cap 300"
    ),
    "cli run-resnet minimal": "run-resnet --system H100",
    "cli run-resnet full": (
        "run-resnet --system MI250 --model resnet18 --gbs 512 --devices 2 "
        "--amd-variant gpu --synthetic --binding wrong-numa --power-cap 250"
    ),
    "cli serve minimal": "serve --system GH200",
    "cli serve full": f"serve --system H100 {_SERVE_FULL}",
    "cli serve sessions": f"serve --system GH200 {_SESSIONS}",
    "cli serve cluster": f"serve --system GH200 {_CLUSTER_FULL}",
    "cli serve cluster sessions": (
        f"serve --system GH200 --replicas 2 --router prefix-cache-aware {_SESSIONS}"
    ),
    "cli serve autoscale": (
        "serve --system GH200 --rate 12 --replicas 4 --autoscale --min-replicas 2"
    ),
    "cli serve disaggregated": (
        "serve --system GH200 --rate 12 --prefill-replicas 1 --decode-replicas 2"
    ),
}

#: JUBE operation commands: case name -> command.
OPERATION_CASES = {
    "op llm_train minimal": "llm_train --system A100 --gbs 64",
    "op llm_train full": (
        "llm_train --system MI250 --model 13B --gbs 128 --mbs 2 --duration 10 "
        "--amd-variant gpu --synthetic true --power-cap 300"
    ),
    "op llm_train bare flag": "llm_train --system A100 --gbs 64 --synthetic",
    "op resnet_train minimal": "resnet_train --system H100 --gbs 128",
    "op resnet_train full": (
        "resnet_train --system MI250 --model resnet18 --gbs 512 --devices 2 "
        "--amd-variant gpu --synthetic true --power-cap 250"
    ),
    "op llm_serve minimal": "llm_serve --system GH200 --rate 4",
    "op llm_serve full": f"llm_serve --system H100 {_SERVE_FULL}",
    "op llm_serve_cluster minimal": "llm_serve_cluster --system GH200 --rate 4",
    "op llm_serve_cluster full": f"llm_serve_cluster --system GH200 {_CLUSTER_FULL}",
    "op llm_serve_cluster sessions": (
        f"llm_serve_cluster --system GH200 --router session-affinity {_SESSIONS}"
    ),
    "op llm_serve_cluster autoscale": (
        "llm_serve_cluster --system GH200 --rate 12 --replicas 4 "
        "--autoscale true --min-replicas 2"
    ),
    "op llm_serve_cluster disaggregated": (
        "llm_serve_cluster --system GH200 --rate 12 --prefill-replicas 1 "
        "--decode-replicas 2"
    ),
    "op pull_container minimal": "pull_container --system MI250",
    "op pull_container full": "pull_container --system A100 --framework tensorflow",
    "op prepare_data synthetic": "prepare_data --synthetic true",
    "op combine_energy": "combine_energy",
}

#: ``caraml powercap`` invocations: case name -> argv (``{tmp}`` is a
#: scratch directory for the store).
POWERCAP_CASES = {
    "cli powercap frontier minimal": "powercap frontier",
    "cli powercap frontier full": (
        "powercap frontier --system GH200 --system A100 --model 117M "
        "--gbs 64 --gbs 512 --cap-fraction 1.0 --cap-fraction 0.6 "
        "--duration 5 --store {tmp}/frontier.jsonl"
    ),
    "cli powercap schedule minimal": "powercap schedule",
    "cli powercap schedule full": (
        "powercap schedule --system GH200 --model 117M --rate 4 --requests 32 "
        "--site hydro --attainment-goal 0.95 --budget 0.01 --horizon 43200 "
        "--store {tmp}/schedule.jsonl"
    ),
}

#: Commands whose flags feed one library call: case name -> argv
#: (``{tmp}`` is a scratch directory holding ``spec.yaml``).
LIBRARY_CALL_CASES = {
    "cli powercap defer minimal": "powercap defer {tmp}/spec.yaml",
    "cli powercap defer full": (
        "powercap defer {tmp}/spec.yaml --store {tmp}/defer.jsonl --site hydro "
        "--item-duration 30 --item-power 250 --parallel 4 --horizon 43200"
    ),
    "cli continuous check minimal": "continuous check --baseline {tmp}/base.json",
    "cli continuous check full": (
        "continuous check --baseline {tmp}/base.json --tolerance 0.2"
    ),
    "cli run-infer minimal": "run-infer --system A100",
    "cli run-infer full": (
        "run-infer --system H100 --model 117M --batch 4 --prompt-tokens 128 "
        "--generate-tokens 32 --power-cap 300"
    ),
}

#: CaramlSuite calls: case name -> (method, system, keyword arguments).
SUITE_CASES = {
    "suite run_llm minimal": ("run_llm", "A100", {}),
    "suite run_llm full": (
        "run_llm",
        "MI250",
        dict(
            model_size="13B",
            global_batch_size=128,
            micro_batch_size=2,
            exit_duration_s=10.0,
            amd_variant="gpu",
            power_cap_watts=300.0,
        ),
    ),
    "suite run_resnet minimal": ("run_resnet", "H100", {}),
    "suite run_resnet full": (
        "run_resnet",
        "MI250",
        dict(
            model="resnet18",
            global_batch_size=512,
            devices=2,
            amd_variant="gpu",
            synthetic_data=True,
            binding="wrong-numa",
            power_cap_watts=250.0,
        ),
    ),
}


class _Stop(Exception):
    """Raised once a front end has built what it would run."""


def _plain(value):
    """A JSON-able description of one resolved argument."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, InferenceEngine):
        return {
            "node": value.node.name,
            "power_cap_watts": value.node.power_cap_watts,
            "device_peak_flops": value.node.device_peak_flops,
            "model": value.model.name,
        }
    if dataclasses.is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return type(value).__name__


@pytest.fixture
def capture(monkeypatch):
    """Record each constructed library object; stop before running it."""
    seen: dict[str, dict] = {}

    def record(name: str, resolved: dict) -> None:
        assert name not in seen, f"{name} constructed twice"
        seen[name] = {k: _plain(v) for k, v in resolved.items()}

    for cls in (LLMBenchmarkConfig, ResNetBenchmarkConfig):
        original = cls.__post_init__

        def post_init(self, _original=original, _name=cls.__name__):
            _original(self)
            record(_name, _plain(self))
            raise _Stop

        monkeypatch.setattr(cls, "__post_init__", post_init)

    for cls in (PoissonArrivals, SessionArrivals):
        original = cls.__post_init__

        def post_init(self, _original=original, _name=cls.__name__):
            _original(self)
            record(_name, _plain(self))

        monkeypatch.setattr(cls, "__post_init__", post_init)

    for cls in (ServingSimulator, ClusterSimulator):
        original = cls.__init__
        signature = inspect.signature(original)

        def init(self, *args, _original=original, _sig=signature,
                 _name=cls.__name__, **kwargs):
            bound = _sig.bind(self, *args, **kwargs)
            bound.apply_defaults()
            record(_name, {k: v for k, v in bound.arguments.items() if k != "self"})
            _original(self, *args, **kwargs)

        def stop(self, *args, **kwargs):
            raise _Stop

        monkeypatch.setattr(cls, "__init__", init)
        monkeypatch.setattr(cls, "run", stop)

    for cls in (PowercapScenario, ServeCapScenario):
        original = cls.__init__

        def scenario_init(self, *args, _original=original, _name=cls.__name__,
                          **kwargs):
            _original(self, *args, **kwargs)
            record(_name, _plain(self))

        monkeypatch.setattr(cls, "__init__", scenario_init)

    def training_sweep(scenario=None, store=None, executor=None):
        record("run_powercap_sweep", {"store": store})
        raise _Stop

    def serve_sweep(scenario=None, store=None, executor=None):
        record("run_serve_cap_sweep", {"store": store})
        return []

    schedule_signature = inspect.signature(powercap.energy_aware_schedule)

    def schedule(*args, **kwargs):
        bound = schedule_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        record("energy_aware_schedule", {
            k: v for k, v in bound.arguments.items() if k != "points"
        })
        raise _Stop

    monkeypatch.setattr(powercap, "run_powercap_sweep", training_sweep)
    monkeypatch.setattr(powercap, "run_serve_cap_sweep", serve_sweep)
    monkeypatch.setattr(powercap, "energy_aware_schedule", schedule)
    return seen


@pytest.fixture
def library_calls(monkeypatch):
    """Record the arguments :data:`LIBRARY_CALL_CASES` resolve to; stop
    before any of them measures or plans."""
    seen: dict[str, dict] = {}

    def bound(fn, *args, **kwargs) -> dict:
        arguments = inspect.signature(fn).bind(*args, **kwargs)
        arguments.apply_defaults()
        return dict(arguments.arguments)

    original_plan_deferral = energysched.plan_deferral
    original_regressed = Comparison.regressed
    original_engine_init = InferenceEngine.__init__

    def plan_deferral(*args, **kwargs):
        resolved = bound(original_plan_deferral, *args, **kwargs)
        resolved["spec"] = resolved["spec"].name
        for name in ("store", "timeseries"):
            del resolved[name]
        seen["plan_deferral"] = {k: _plain(v) for k, v in resolved.items()}
        raise _Stop

    def regressed(self, *args, **kwargs):
        resolved = bound(original_regressed, self, *args, **kwargs)
        seen["Comparison.regressed"] = {"tolerance": resolved["tolerance"]}
        raise _Stop

    def compare(self, baseline_path):
        return [Comparison(BenchmarkPoint("llm", "A100", 256), 1.0, 1.0, 1.0, 1.0)]

    def engine_init(self, *args, **kwargs):
        original_engine_init(self, *args, **kwargs)
        seen["InferenceEngine"] = _plain(self)

    def workload_post_init(self):
        seen["InferenceWorkload"] = _plain(self)
        raise _Stop

    monkeypatch.setattr(energysched, "plan_deferral", plan_deferral)
    monkeypatch.setattr(Comparison, "regressed", regressed)
    monkeypatch.setattr(Comparison, "describe", lambda self: "")
    monkeypatch.setattr(ContinuousBenchmark, "compare", compare)
    monkeypatch.setattr(InferenceEngine, "__init__", engine_init)
    monkeypatch.setattr(InferenceWorkload, "__post_init__", workload_post_init)
    return seen


def _resolve_cli(argv: str, seen: dict) -> dict:
    try:
        cli_run(argv.split(), stdout=io.StringIO())
    except _Stop:
        pass
    return seen


def _resolve_operation(command: str, seen: dict) -> dict:
    wp = Workpackage(step=Step(name="golden"), parameters={}, index=0)
    try:
        build_operation_registry().dispatch(command, wp)
    except _Stop:
        return seen
    return {**seen, "outputs": {k: _plain(v) for k, v in wp.outputs.items()}}


def _resolve_suite(case: tuple, seen: dict) -> dict:
    method, system, kwargs = case
    with pytest.raises(_Stop):
        getattr(CaramlSuite(), method)(system, **kwargs)
    return seen


def _check(name: str, produced: dict, update: bool) -> None:
    path = GOLDEN_DIR / name
    text = json.dumps(produced, sort_keys=True, indent=2) + "\n"
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert path.exists(), f"golden {path.name} missing; run with --update-goldens"
    assert text == path.read_text(encoding="utf-8"), (
        f"front-end resolution drifted from golden {path.name}"
    )


def _golden_entry(name: str, produced: dict, update: bool) -> None:
    """Compare (or rewrite) one case of the shared front-end golden."""
    path = GOLDEN_DIR / "front_ends.json"
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if update:
        golden[name] = produced
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(golden, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    assert name in golden, f"no golden for {name!r}; run with --update-goldens"
    # Compared as JSON text so an int where the golden has a float fails.
    assert json.dumps(produced, sort_keys=True) == json.dumps(
        golden[name], sort_keys=True
    ), name


class TestFrontEndGolden:
    @pytest.mark.parametrize("name", sorted(CLI_CASES))
    def test_cli(self, name, capture, update_goldens):
        _golden_entry(name, _resolve_cli(CLI_CASES[name], capture), update_goldens)

    @pytest.mark.parametrize("name", sorted(POWERCAP_CASES))
    def test_powercap(self, name, capture, update_goldens, tmp_path):
        argv = POWERCAP_CASES[name].format(tmp=tmp_path)
        with pytest.raises(_Stop):
            cli_run(argv.split(), stdout=io.StringIO())
        _golden_entry(name, capture, update_goldens)

    @pytest.mark.parametrize("name", sorted(LIBRARY_CALL_CASES))
    def test_library_call(self, name, library_calls, update_goldens, tmp_path):
        (tmp_path / "spec.yaml").write_text(
            f"name: defer-golden\nsystems: [A100]\nstore: {tmp_path}/spec.jsonl\n"
            "workloads:\n  - kind: llm\n    fixed: {global_batch_size: 64}\n"
        )
        argv = LIBRARY_CALL_CASES[name].format(tmp=tmp_path)
        with pytest.raises(_Stop):
            cli_run(argv.split(), stdout=io.StringIO())
        _golden_entry(name, library_calls, update_goldens)

    @pytest.mark.parametrize("name", sorted(OPERATION_CASES))
    def test_operation(self, name, capture, update_goldens):
        produced = _resolve_operation(OPERATION_CASES[name], capture)
        _golden_entry(name, produced, update_goldens)

    @pytest.mark.parametrize("name", sorted(SUITE_CASES))
    def test_suite(self, name, capture, update_goldens):
        _golden_entry(name, _resolve_suite(SUITE_CASES[name], capture), update_goldens)


#: Every built-in workload kind at its defaults (the training kinds
#: need a batch size, which they do not default).
BUILTIN_CAMPAIGN = {
    "name": "golden-kinds",
    "systems": ["GH200"],
    "workloads": [
        {"kind": "llm", "fixed": {"global_batch_size": 64}},
        {"kind": "resnet", "fixed": {"global_batch_size": 128}},
        {"kind": "serve"},
        {"kind": "serve_cluster"},
    ],
}


def test_builtin_kind_campaign_keys_and_rows(tmp_path, update_goldens):
    spec = CampaignSpec.from_dict(BUILTIN_CAMPAIGN)
    with open_store(tmp_path / "golden.campaign.jsonl") as store:
        report = CampaignRunner(store, IsolatingExecutor()).run(spec)
        assert report.failed == 0
        rows = {
            row.key: {**row.flat(), "error": row.error}
            for row in store.query(campaign=spec.name)
        }
    _check("builtin_kinds_campaign.json", rows, update_goldens)

"""libyaml's safe loader against PyYAML's pure-Python one.

:func:`repro.yamlio.safe_load` parses with libyaml's loader when PyYAML
has it.  Both loaders must build equal documents from the package's
YAML inputs: the shipped JUBE scripts, and the campaign, search and
fault-plan texts their loaders' tests read.
"""

from pathlib import Path

import pytest
import yaml

import repro.core
from repro.yamlio import safe_load

SCRIPTS = sorted((Path(repro.core.__file__).parent / "scripts").glob("*.yaml"))

CAMPAIGN = """
name: mixed
systems: [A100, MI250]
store: mixed.sqlite
workloads:
  - kind: llm
    name: llm-sweep
    axes: {global_batch_size: [256, 1024]}
    fixed: {exit_duration: 15}
  - name: custom
    operation: "emit --value $v"
    axes: {v: [1, 2]}
"""

SEARCH = yaml.safe_dump(
    {
        "name": "with-search",
        "systems": ["A100"],
        "workloads": [
            {
                "kind": "serve",
                "axes": {"arrival_rate": [8, 16]},
                "fixed": {"requests": "32"},
            }
        ],
        "search": {"screen_requests": 16, "rungs": 1},
    }
)

FAULT_PLAN = (
    "name: chaos\n"
    "seed: 9\n"
    "faults:\n"
    "  - kind: node_crash\n"
    "    where: {system: A100}\n"
    "  - kind: sensor_dropout\n"
    "    at_time_s: 1.0\n"
    "    duration_s: 2.5\n"
)

TEXTS = {
    **{path.name: path.read_text() for path in SCRIPTS},
    "campaign": CAMPAIGN,
    "search": SEARCH,
    "fault-plan": FAULT_PLAN,
}


def test_both_shipped_yaml_scripts_are_covered():
    assert [path.name for path in SCRIPTS] == [
        "llm_benchmark_ipu.yaml",
        "llm_benchmark_nvidia_amd.yaml",
    ]


@pytest.mark.parametrize("name", TEXTS)
def test_loaders_build_equal_documents(name):
    text = TEXTS[name]
    python = yaml.load(text, Loader=yaml.SafeLoader)
    assert python
    assert safe_load(text) == python
    if hasattr(yaml, "CSafeLoader"):
        assert yaml.load(text, Loader=yaml.CSafeLoader) == python

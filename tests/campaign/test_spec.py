"""Campaign spec construction, validation, and compilation."""

from __future__ import annotations

import pytest
import yaml

from repro.campaign.spec import BUILTIN_KINDS, CampaignSpec, WorkloadSpec, load_campaign_spec
from repro.errors import ConfigError
from repro.jube.parameters import expand_parameter_space


class TestWorkloadSpec:
    def test_of_kind_defaults(self):
        wl = WorkloadSpec.of_kind("llm")
        assert wl.name == "llm"
        assert wl.fixed["model_size"] == "800M"
        assert "llm_train" in wl.operations[0]

    def test_of_kind_fixed_overrides_default(self):
        wl = WorkloadSpec.of_kind("llm", fixed={"exit_duration": 15})
        assert wl.fixed["exit_duration"] == "15"

    def test_axis_on_defaulted_parameter_replaces_fixed(self):
        wl = WorkloadSpec.of_kind("resnet", axes={"devices": [1, 4]})
        assert wl.axes["devices"] == ("1", "4")
        assert "devices" not in wl.fixed

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown workload kind"):
            WorkloadSpec.of_kind("quantum")

    def test_misspelled_parameter_rejected(self):
        # A typo used to plan workpackages that all ran at the default.
        doc = {
            "name": "typo",
            "systems": ["GH200"],
            "workloads": [{"kind": "serve", "axes": {"arival_rate": [2, 40]}}],
        }
        with pytest.raises(ConfigError, match="'arival_rate'") as info:
            CampaignSpec.from_dict(doc)
        assert "arrival_rate" in str(info.value).split("parameters:")[1]

    @pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
    def test_unknown_fixed_name_lists_the_kinds_parameters(self, kind):
        with pytest.raises(ConfigError, match="power_cap") as info:
            WorkloadSpec.of_kind(kind, fixed={"powercap": "300"})
        assert "'powercap'" in str(info.value)

    def test_reserved_system_parameter(self):
        with pytest.raises(ConfigError, match="system"):
            WorkloadSpec(name="w", operations=("emit",), fixed={"system": "A100"})

    def test_needs_operations(self):
        with pytest.raises(ConfigError, match="no operations"):
            WorkloadSpec(name="w", operations=())

    def test_combinations(self):
        wl = WorkloadSpec(
            name="w",
            operations=("emit",),
            axes={"a": ("1", "2"), "b": ("x", "y", "z")},
        )
        assert wl.combinations == 6


class TestCampaignSpec:
    def test_size_is_cross_product(self, toy_spec):
        assert toy_spec.size == 2 * 3

    def test_duplicate_workload_names(self):
        wl = WorkloadSpec(name="w", operations=("emit",))
        with pytest.raises(ConfigError, match="duplicate workload"):
            CampaignSpec(name="c", systems=("A100",), workloads=(wl, wl))

    def test_unknown_dependency(self):
        wl = WorkloadSpec(name="w", operations=("emit",), depends=("nope",))
        with pytest.raises(ConfigError, match="unknown"):
            CampaignSpec(name="c", systems=("A100",), workloads=(wl,))

    def test_needs_systems_and_workloads(self):
        wl = WorkloadSpec(name="w", operations=("emit",))
        with pytest.raises(ConfigError, match="no systems"):
            CampaignSpec(name="c", systems=(), workloads=(wl,))
        with pytest.raises(ConfigError, match="no workloads"):
            CampaignSpec(name="c", systems=("A100",), workloads=())

    def test_compile_expands_to_declared_size(self, toy_spec):
        script = toy_spec.compile()
        step = script.steps[0]
        sets = [script.parameter_set(n) for n in step.parameter_sets]
        combos = expand_parameter_space(sets)
        assert len(combos) == toy_spec.size
        assert {c["system"] for c in combos} == {"A100", "H100"}

    def test_compile_maps_workloads_to_steps(self):
        spec = CampaignSpec(
            name="c",
            systems=("A100",),
            workloads=(
                WorkloadSpec(name="prepare", operations=("emit --value 1",)),
                WorkloadSpec(
                    name="train",
                    operations=("emit --value 2",),
                    depends=("prepare",),
                ),
            ),
        )
        script = spec.compile()
        assert [s.name for s in script.steps] == ["prepare", "train"]
        assert script.steps[1].depends == ("prepare",)


class TestSerialisation:
    def test_dict_round_trip(self, toy_spec):
        assert CampaignSpec.from_dict(toy_spec.to_dict()) == toy_spec

    def test_from_yaml_with_kind_and_custom_workload(self):
        spec = CampaignSpec.from_yaml(
            """
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
        )
        assert spec.store == "mixed.sqlite"
        assert spec.workloads[0].name == "llm-sweep"
        assert spec.workloads[0].operations == BUILTIN_KINDS["llm"][0]
        assert spec.workloads[1].operations == ("emit --value $v",)
        assert spec.size == 2 * (2 + 2)

    def test_yaml_round_trip_through_dump(self, toy_spec):
        text = yaml.safe_dump(toy_spec.to_dict())
        assert CampaignSpec.from_yaml(text) == toy_spec

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="invalid campaign YAML"):
            CampaignSpec.from_yaml("{unbalanced")

    def test_missing_name(self):
        with pytest.raises(ConfigError, match="'name'"):
            CampaignSpec.from_dict({"systems": ["A100"]})

    @pytest.mark.parametrize(
        "doc, key, known",
        [
            ({"sytems": ["A100"]}, "sytems", "name, systems, store, workloads, search"),
            (
                {"workloads": [{"kind": "llm", "axis": {"power_cap": [0]}}]},
                "axis",
                "kind, name, axes, fixed, depends, operations, operation",
            ),
            ({"workloads": [{"kind": "llm", "fixd": {}}]}, "fixd", "fixed"),
            (
                {"workloads": [{"kind": "llm", "columns": ["system"]}]},
                "columns",
                "axes",
            ),
        ],
    )
    def test_misspelled_key_rejected(self, doc, key, known):
        # A misspelled key used to fall back to the kind's defaults.
        doc = {
            "name": "typo", "systems": ["A100"], "workloads": [{"kind": "llm"}], **doc
        }
        with pytest.raises(ConfigError, match=f"unknown key.*'{key}'") as info:
            CampaignSpec.from_dict(doc)
        assert known in str(info.value)

    def test_workload_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="workload 1 must be a mapping"):
            CampaignSpec.from_dict(
                {"name": "c", "systems": ["A100"], "workloads": ["llm"]}
            )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no campaign spec"):
            load_campaign_spec(tmp_path / "nope.yaml")

    def test_load_from_file(self, tmp_path, toy_spec):
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(toy_spec.to_dict()))
        assert load_campaign_spec(path) == toy_spec

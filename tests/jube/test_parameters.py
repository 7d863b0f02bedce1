"""Tests for JUBE parameters, expansion and substitution."""

import pytest

from repro.errors import JubeError
from repro.jube.parameters import (
    Parameter,
    ParameterSet,
    expand_parameter_space,
    substitute,
)


class TestParameter:
    def test_make_scalar(self):
        p = Parameter.make("gbs", 256)
        assert p.values == ("256",)

    def test_make_list(self):
        p = Parameter.make("gbs", [16, 64, 256])
        assert p.values == ("16", "64", "256")

    def test_tag_activation(self):
        p = Parameter.make("system", "A100", tags=["A100"])
        assert p.active_for(frozenset({"A100", "container"}))
        assert not p.active_for(frozenset({"H100"}))

    def test_untagged_always_active(self):
        p = Parameter.make("x", 1)
        assert p.active_for(frozenset())

    def test_invalid_name(self):
        with pytest.raises(JubeError):
            Parameter.make("2bad", 1)

    def test_empty_values(self):
        with pytest.raises(JubeError):
            Parameter("x", ())


class TestParameterSet:
    def test_later_definition_overrides(self):
        pset = ParameterSet("s")
        pset.add(Parameter.make("system", "default"))
        pset.add(Parameter.make("system", "A100", tags=["A100"]))
        assert pset.resolve(frozenset({"A100"}))["system"] == ("A100",)
        assert pset.resolve(frozenset())["system"] == ("default",)

    def test_invalid_set_name(self):
        with pytest.raises(JubeError):
            ParameterSet("bad name")


class TestExpansion:
    def test_cartesian_product(self):
        pset = ParameterSet("s")
        pset.add(Parameter.make("a", [1, 2]))
        pset.add(Parameter.make("b", ["x", "y", "z"]))
        combos = expand_parameter_space([pset])
        assert len(combos) == 6
        assert {"a": "1", "b": "x"} in combos

    def test_expansion_cardinality_is_product(self):
        pset = ParameterSet("s")
        for name, n in [("a", 2), ("b", 3), ("c", 4)]:
            pset.add(Parameter.make(name, list(range(n))))
        assert len(expand_parameter_space([pset])) == 24

    def test_empty_sets_give_single_empty_combo(self):
        assert expand_parameter_space([]) == [{}]

    def test_later_sets_override_earlier(self):
        a = ParameterSet("a")
        a.add(Parameter.make("x", 1))
        b = ParameterSet("b")
        b.add(Parameter.make("x", 2))
        combos = expand_parameter_space([a, b])
        assert combos == [{"x": "2"}]

    def test_deterministic_order(self):
        pset = ParameterSet("s")
        pset.add(Parameter.make("a", [1, 2]))
        assert expand_parameter_space([pset]) == expand_parameter_space([pset])

    def test_tag_filtered_expansion(self):
        pset = ParameterSet("s")
        pset.add(Parameter.make("gbs", [16, 64]))
        pset.add(Parameter.make("big", [1024, 2048], tags=["large"]))
        assert len(expand_parameter_space([pset])) == 2
        assert len(expand_parameter_space([pset], tags=["large"])) == 4


class TestSubstitution:
    def test_dollar_and_braced_forms(self):
        values = {"system": "A100", "gbs": "64"}
        assert substitute("run $system ${gbs}", values) == "run A100 64"

    def test_nested_substitution_to_fixpoint(self):
        values = {"a": "$b", "b": "$c", "c": "leaf"}
        assert substitute("$a", values) == "leaf"

    def test_unknown_parameter(self):
        with pytest.raises(JubeError, match="undefined"):
            substitute("$missing", {})

    def test_cycle_detected(self):
        with pytest.raises(JubeError, match="converge"):
            substitute("$a", {"a": "$b", "b": "$a"})

    def test_no_references_passthrough(self):
        assert substitute("plain text", {}) == "plain text"

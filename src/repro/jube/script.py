"""JUBE script loading (YAML and XML formats).

The paper ships the LLM benchmark scripts in YAML and the ResNet50
script in XML "for illustrative reasons"; both formats are supported
here and map onto the same :class:`BenchmarkScript` structure.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from repro.errors import JubeError
from repro.jube.parameters import Parameter, ParameterSet
from repro.jube.result import ResultTable
from repro.jube.steps import Step
from repro.yamlio import safe_load


@dataclass
class BenchmarkScript:
    """A parsed JUBE benchmark script."""

    name: str
    parameter_sets: dict[str, ParameterSet] = field(default_factory=dict)
    steps: list[Step] = field(default_factory=list)
    results: list[ResultTable] = field(default_factory=list)
    continue_steps: frozenset[str] = frozenset()

    def parameter_set(self, name: str) -> ParameterSet:
        """Look up a parameter set by name."""
        try:
            return self.parameter_sets[name]
        except KeyError:
            raise JubeError(f"unknown parameter set {name!r}") from None

    def result_table(self, name: str) -> ResultTable:
        """Look up a result table by name."""
        for table in self.results:
            if table.name == name:
                return table
        known = ", ".join(table.name for table in self.results) or "none"
        raise JubeError(f"unknown result table {name!r}; tables: {known}")

    def validate(self) -> None:
        """Check cross-references (steps' use=, results' step=)."""
        step_names = {s.name for s in self.steps}
        if len(step_names) != len(self.steps):
            raise JubeError("duplicate step names")
        for step in self.steps:
            for ps in step.parameter_sets:
                if ps not in self.parameter_sets:
                    raise JubeError(
                        f"step {step.name!r} uses unknown parameter set {ps!r}"
                    )
            for dep in step.depends:
                if dep not in step_names:
                    raise JubeError(
                        f"step {step.name!r} depends on unknown step {dep!r}"
                    )
        for table in self.results:
            if table.step not in step_names:
                raise JubeError(
                    f"result table {table.name!r} references unknown step "
                    f"{table.step!r}"
                )
        for name in self.continue_steps:
            if name not in step_names:
                raise JubeError(f"continue step {name!r} does not exist")


# -- YAML ----------------------------------------------------------------------


def _parse_tags(raw) -> frozenset[str]:
    if raw is None:
        return frozenset()
    if isinstance(raw, str):
        return frozenset(t.strip() for t in raw.split(",") if t.strip())
    if isinstance(raw, (list, tuple)):
        return frozenset(str(t) for t in raw)
    raise JubeError(f"invalid tag specification {raw!r}")


def load_yaml_script(source: str | Path) -> BenchmarkScript:
    """Parse a YAML benchmark script (text or path)."""
    text = Path(source).read_text() if isinstance(source, Path) else source
    try:
        doc = safe_load(text)
    except yaml.YAMLError as exc:
        raise JubeError(f"invalid YAML: {exc}") from None
    if not isinstance(doc, dict) or "name" not in doc:
        raise JubeError("YAML script must be a mapping with a 'name'")

    script = BenchmarkScript(name=str(doc["name"]))
    for raw_set in doc.get("parametersets", []):
        pset = ParameterSet(str(raw_set["name"]))
        for raw_param in raw_set.get("parameters", []):
            if "values" in raw_param:
                value = raw_param["values"]
            elif "value" in raw_param:
                value = raw_param["value"]
            else:
                raise JubeError(
                    f"parameter {raw_param.get('name')!r} needs value or values"
                )
            pset.add(
                Parameter.make(
                    str(raw_param["name"]), value, _parse_tags(raw_param.get("tag"))
                )
            )
        script.parameter_sets[pset.name] = pset

    continue_steps = set()
    for raw_step in doc.get("steps", []):
        step = Step(
            name=str(raw_step["name"]),
            operations=tuple(str(op) for op in raw_step.get("do", [])),
            depends=tuple(str(d) for d in raw_step.get("depends", [])),
            parameter_sets=tuple(str(u) for u in raw_step.get("use", [])),
            tags=_parse_tags(raw_step.get("tag")),
        )
        script.steps.append(step)
        if raw_step.get("continue", False):
            continue_steps.add(step.name)
    script.continue_steps = frozenset(continue_steps)

    for raw_table in doc.get("results", []):
        script.results.append(
            ResultTable(
                name=str(raw_table["name"]),
                step=str(raw_table["step"]),
                columns=tuple(str(c) for c in raw_table.get("columns", [])),
                sort_by=tuple(str(c) for c in raw_table.get("sort", [])),
            )
        )
    script.validate()
    return script


# -- XML -----------------------------------------------------------------------


def load_xml_script(source: str | Path) -> BenchmarkScript:
    """Parse an XML benchmark script (text or path)."""
    text = Path(source).read_text() if isinstance(source, Path) else source
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise JubeError(f"invalid XML: {exc}") from None
    bench = root.find("benchmark") if root.tag != "benchmark" else root
    if bench is None or "name" not in bench.attrib:
        raise JubeError("XML script needs a <benchmark name=...> element")

    script = BenchmarkScript(name=bench.attrib["name"])
    for raw_set in bench.findall("parameterset"):
        pset = ParameterSet(raw_set.attrib["name"])
        for raw_param in raw_set.findall("parameter"):
            name = raw_param.attrib.get("name")
            if not name:
                raise JubeError("parameter without a name")
            text_value = (raw_param.text or "").strip()
            separator = raw_param.attrib.get("separator")
            value = text_value.split(separator) if separator else text_value
            pset.add(
                Parameter.make(name, value, _parse_tags(raw_param.attrib.get("tag")))
            )
        script.parameter_sets[pset.name] = pset

    continue_steps = set()
    for raw_step in bench.findall("step"):
        name = raw_step.attrib.get("name")
        if not name:
            raise JubeError("step without a name")
        depends = tuple(
            d.strip()
            for d in raw_step.attrib.get("depend", "").split(",")
            if d.strip()
        )
        uses = tuple((u.text or "").strip() for u in raw_step.findall("use"))
        ops = tuple((d.text or "").strip() for d in raw_step.findall("do"))
        step = Step(
            name=name,
            operations=ops,
            depends=depends,
            parameter_sets=uses,
            tags=_parse_tags(raw_step.attrib.get("tag")),
        )
        script.steps.append(step)
        if raw_step.attrib.get("continue", "false").lower() == "true":
            continue_steps.add(name)
    script.continue_steps = frozenset(continue_steps)

    for raw_table in bench.findall("result"):
        columns = tuple((c.text or "").strip() for c in raw_table.findall("column"))
        script.results.append(
            ResultTable(
                name=raw_table.attrib.get("name", "result"),
                step=raw_table.attrib["step"],
                columns=columns,
                sort_by=tuple(
                    s.strip()
                    for s in raw_table.attrib.get("sort", "").split(",")
                    if s.strip()
                ),
            )
        )
    script.validate()
    return script


def load_script(path: str | Path) -> BenchmarkScript:
    """Load a script by file extension (.yaml/.yml or .xml)."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix in (".yaml", ".yml"):
        return load_yaml_script(p)
    if suffix == ".xml":
        return load_xml_script(p)
    raise JubeError(f"unknown script format {suffix!r} for {path}")

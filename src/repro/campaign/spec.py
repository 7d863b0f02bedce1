"""Campaign specifications.

A campaign declares the cross-product the paper's evaluation sweeps —
systems × workloads × parameter axes — in one declarative object (or
YAML file) and compiles it onto the existing JUBE machinery: each
workload becomes a step with one parameter set whose multi-valued
parameters drive JUBE's Cartesian expansion into workpackages.

Built-in workload kinds (``llm``, ``resnet``, ``serve``,
``serve_cluster``) expand to the
same operation templates the shipped benchmark scripts use, so a
three-line spec reproduces a Figure-2-style sweep (or an arrival-rate ×
system serving sweep); arbitrary operation templates cover everything
else the operation registry knows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from repro.errors import ConfigError
from repro.jube.parameters import Parameter, ParameterSet, referenced
from repro.jube.script import BenchmarkScript
from repro.jube.steps import Step
from repro.yamlio import safe_load

#: Operation templates of the built-in workload kinds, mirroring the
#: ``do`` strings of the shipped JUBE scripts.
BUILTIN_KINDS: dict[str, tuple[tuple[str, ...], dict[str, str]]] = {
    "llm": (
        (
            "llm_train --system $system --model $model_size "
            "--gbs $global_batch_size --mbs $micro_batch_size "
            "--duration $exit_duration --amd-variant $amd_variant "
            "--synthetic $use_synthetic --power-cap $power_cap",
        ),
        {
            "model_size": "800M",
            "micro_batch_size": "4",
            "exit_duration": "30",
            "amd_variant": "gcd",
            "use_synthetic": "false",
            "power_cap": "0",
        },
    ),
    "resnet": (
        (
            "resnet_train --system $system --model $model "
            "--gbs $global_batch_size --devices $devices "
            "--amd-variant $amd_variant --synthetic $use_synthetic "
            "--power-cap $power_cap",
        ),
        {
            "model": "resnet50",
            "devices": "1",
            "amd_variant": "gcd",
            "use_synthetic": "false",
            "power_cap": "0",
        },
    ),
    "serve": (
        (
            "llm_serve --system $system --model $model_size "
            "--rate $arrival_rate --requests $requests "
            "--batch-cap $batch_cap --queue-cap $queue_capacity "
            "--prompt-tokens $prompt_tokens "
            "--generate-tokens $generate_tokens --spread $length_spread "
            "--seed $arrival_seed --slo-ttft-ms $slo_ttft_ms "
            "--slo-e2e-ms $slo_e2e_ms --power-cap $power_cap",
        ),
        {
            "model_size": "800M",
            "arrival_rate": "8",
            "requests": "32",
            "batch_cap": "16",
            "queue_capacity": "256",
            "prompt_tokens": "512",
            "generate_tokens": "128",
            "length_spread": "0",
            "arrival_seed": "0",
            "slo_ttft_ms": "0",
            "slo_e2e_ms": "0",
            "power_cap": "0",
        },
    ),
    "serve_cluster": (
        (
            "llm_serve_cluster --system $system --model $model_size "
            "--rate $arrival_rate --requests $requests "
            "--replicas $replicas --router $router "
            "--batch-cap $batch_cap --queue-cap $queue_capacity "
            "--prompt-tokens $prompt_tokens "
            "--generate-tokens $generate_tokens --spread $length_spread "
            "--sessions $sessions --prefix-tokens $prefix_tokens "
            "--autoscale $autoscale --min-replicas $min_replicas "
            "--prefill-replicas $prefill_replicas "
            "--decode-replicas $decode_replicas "
            "--seed $arrival_seed --slo-ttft-ms $slo_ttft_ms "
            "--slo-e2e-ms $slo_e2e_ms --power-cap $power_cap",
        ),
        {
            "model_size": "800M",
            "arrival_rate": "8",
            "requests": "32",
            "replicas": "2",
            "router": "round-robin",
            "batch_cap": "16",
            "queue_capacity": "256",
            "prompt_tokens": "512",
            "generate_tokens": "128",
            "length_spread": "0",
            "sessions": "0",
            "prefix_tokens": "384",
            "autoscale": "false",
            "min_replicas": "1",
            "prefill_replicas": "0",
            "decode_replicas": "0",
            "arrival_seed": "0",
            "slo_ttft_ms": "0",
            "slo_e2e_ms": "0",
            "power_cap": "0",
        },
    ),
}


#: Keys a campaign spec may carry (``search`` is read by
#: :func:`repro.campaign.search.load_search_spec`).
_SPEC_KEYS = ("name", "systems", "store", "workloads", "search")
#: Keys a workload entry may carry.
_WORKLOAD_KEYS = ("kind", "name", "axes", "fixed", "depends", "operations", "operation")


def _check_keys(doc: dict, known: tuple[str, ...], where: str) -> None:
    """Reject keys a spec section does not know (a misspelling would
    otherwise fall back to a default silently)."""
    unknown = [str(key) for key in doc if key not in known]
    if unknown:
        raise ConfigError(
            f"{where} has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(known)}"
        )


def _str_tuple(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return (str(value),)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload of a campaign (compiles to one JUBE step).

    Attributes
    ----------
    name:
        Workload name, unique within the campaign; becomes the step
        name and the ``step`` column of store rows.
    operations:
        Operation command templates (``"opname --key $param ..."``).
    axes:
        Sweep axes: parameter name -> values; every combination becomes
        one workpackage (times the campaign's system axis).
    fixed:
        Single-valued parameters the templates reference.
    depends:
        Names of workloads whose results seed this one.
    """

    name: str
    operations: tuple[str, ...]
    axes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    fixed: dict[str, str] = field(default_factory=dict)
    depends: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("workload needs a name")
        if not self.operations:
            raise ConfigError(f"workload {self.name!r} has no operations")
        for reserved in ("system",):
            if reserved in self.axes or reserved in self.fixed:
                raise ConfigError(
                    f"workload {self.name!r} redefines the campaign-level "
                    f"{reserved!r} parameter"
                )

    @classmethod
    def of_kind(
        cls,
        kind: str,
        *,
        name: str | None = None,
        axes: dict | None = None,
        fixed: dict | None = None,
        depends=(),
    ) -> "WorkloadSpec":
        """A built-in workload from :data:`BUILTIN_KINDS` with overrides.

        ``fixed`` entries override the kind's defaults; an axis on a
        defaulted parameter replaces the default entirely.  A name the
        kind's template does not reference is a :class:`ConfigError`.
        """
        try:
            operations, defaults = BUILTIN_KINDS[kind]
        except KeyError:
            raise ConfigError(
                f"unknown workload kind {kind!r}; "
                f"built-in: {sorted(BUILTIN_KINDS)}"
            ) from None
        known = set().union(*map(referenced, operations))
        for given in (*(axes or {}), *(fixed or {})):
            if given not in known:
                raise ConfigError(
                    f"workload kind {kind!r} has no parameter {given!r}; "
                    f"its parameters: {', '.join(sorted(known))}"
                )
        axes = {k: _str_tuple(v) for k, v in (axes or {}).items()}
        merged_fixed = {
            k: str(v)
            for k, v in {**defaults, **(fixed or {})}.items()
            if k not in axes
        }
        return cls(
            name=name or kind,
            operations=operations,
            axes=axes,
            fixed=merged_fixed,
            depends=tuple(depends),
        )

    @property
    def combinations(self) -> int:
        """Workpackages per system this workload expands to."""
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count


@dataclass(frozen=True)
class CampaignSpec:
    """A declared (system × workload × parameters) sweep.

    ``store`` optionally names the default result-store path used by
    the CLI when ``--store`` is not given.
    """

    name: str
    systems: tuple[str, ...]
    workloads: tuple[WorkloadSpec, ...]
    store: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("campaign needs a name")
        if not self.systems:
            raise ConfigError(f"campaign {self.name!r} declares no systems")
        if not self.workloads:
            raise ConfigError(f"campaign {self.name!r} declares no workloads")
        names = [w.name for w in self.workloads]
        if len(set(names)) != len(names):
            raise ConfigError(f"campaign {self.name!r} has duplicate workload names")
        for workload in self.workloads:
            for dep in workload.depends:
                if dep not in names:
                    raise ConfigError(
                        f"workload {workload.name!r} depends on unknown {dep!r}"
                    )

    @property
    def size(self) -> int:
        """Total workpackages the campaign expands to."""
        return len(self.systems) * sum(w.combinations for w in self.workloads)

    def compile(self) -> BenchmarkScript:
        """Compile to a :class:`BenchmarkScript` for the JUBE machinery."""
        script = BenchmarkScript(name=self.name)
        for workload in self.workloads:
            pset = ParameterSet(f"{workload.name}_parameters".replace("-", "_"))
            pset.add(Parameter.make("system", list(self.systems)))
            for axis, values in workload.axes.items():
                pset.add(Parameter.make(axis, list(values)))
            for key, value in workload.fixed.items():
                pset.add(Parameter.make(key, value))
            script.parameter_sets[pset.name] = pset
            script.steps.append(
                Step(
                    name=workload.name,
                    operations=workload.operations,
                    depends=workload.depends,
                    parameter_sets=(pset.name,),
                )
            )
        script.validate()
        return script

    # -- serialisation ------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignSpec":
        """Build a spec from a plain mapping (parsed YAML/JSON)."""
        if not isinstance(doc, dict) or "name" not in doc:
            raise ConfigError("campaign spec must be a mapping with a 'name'")
        _check_keys(doc, _SPEC_KEYS, "campaign spec")
        workloads = []
        for position, raw in enumerate(doc.get("workloads") or [], start=1):
            if not isinstance(raw, dict):
                raise ConfigError(f"workload {position} must be a mapping")
            _check_keys(raw, _WORKLOAD_KEYS, f"workload {position}")
            kind = raw.get("kind")
            if kind is not None:
                workloads.append(
                    WorkloadSpec.of_kind(
                        str(kind),
                        name=raw.get("name"),
                        axes=raw.get("axes"),
                        fixed=raw.get("fixed"),
                        depends=_str_tuple(raw.get("depends", ())),
                    )
                )
            else:
                workloads.append(
                    WorkloadSpec(
                        name=str(raw.get("name", "")),
                        operations=_str_tuple(
                            raw.get("operations", raw.get("operation", ()))
                        ),
                        axes={
                            k: _str_tuple(v)
                            for k, v in (raw.get("axes") or {}).items()
                        },
                        fixed={
                            k: str(v) for k, v in (raw.get("fixed") or {}).items()
                        },
                        depends=_str_tuple(raw.get("depends", ())),
                    )
                )
        return cls(
            name=str(doc["name"]),
            systems=_str_tuple(doc.get("systems", ())),
            workloads=tuple(workloads),
            store=str(doc["store"]) if doc.get("store") else None,
        )

    @classmethod
    def from_yaml(cls, source: str | Path) -> "CampaignSpec":
        """Load a spec from YAML text or a file path."""
        text = Path(source).read_text() if isinstance(source, Path) else source
        try:
            doc = safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid campaign YAML: {exc}") from None
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        """Plain-mapping form (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "systems": list(self.systems),
            "store": self.store,
            "workloads": [
                {
                    "name": w.name,
                    "operations": list(w.operations),
                    "axes": {k: list(v) for k, v in w.axes.items()},
                    "fixed": dict(w.fixed),
                    "depends": list(w.depends),
                }
                for w in self.workloads
            ],
        }


def load_campaign_spec(path: str | Path) -> CampaignSpec:
    """Load a campaign spec from a YAML file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no campaign spec at {p}")
    return CampaignSpec.from_yaml(p)

"""Declarative fault plans.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec`\\ s — the
chaos-campaign equivalent of a campaign spec.  Each spec names a fault
*kind*, what it targets (a workload step, parameter values, a device),
and when it triggers (simulated time, step index, probability).  Plans
are plain data: they load from YAML, round-trip through dicts, pickle
into pool workers, and hash into campaign result keys so chaos rows
never collide with clean rows in the exact cache.

Fault kinds
-----------

``oom``
    Raise :class:`~repro.errors.OutOfMemoryError` inside the training
    loop (the paper's Figure 4 OOM walls, hit mid-run).
``memory_pressure``
    Shrink the usable device memory by ``magnitude`` bytes, pushing
    borderline configurations over the OOM edge at feasibility-check
    time (:mod:`repro.engine.oom`).
``straggler``
    Multiply step durations by ``magnitude`` while active (slow node /
    thermally-throttled device).
``sensor_dropout``
    Power-sensor reads raise while active (device falling off the bus;
    jpwr drops the affected samples).
``sensor_spike``
    Power reads are offset by ``magnitude`` watts while active (the
    MI250 power-anomaly class of the paper).
``sensor_nan``
    Power reads return NaN while active; jpwr discards the poisoned
    samples as anomalous.
``transient``
    The workpackage raises :class:`~repro.errors.TransientError` at
    start (scheduler hiccup); the campaign retry/backoff path handles
    it.
``node_crash``
    The node dies.  In a campaign workpackage this surfaces as a
    retryable :class:`~repro.errors.TransientError`; in the simulated
    Slurm scheduler the job fails with ``NodeFail``.
``preemption``
    The Slurm job is preempted and requeued (runs in a later
    scheduling round).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from repro.errors import ConfigError
from repro.yamlio import safe_load

#: Every fault kind a spec may declare.
FAULT_KINDS = (
    "oom",
    "memory_pressure",
    "straggler",
    "sensor_dropout",
    "sensor_spike",
    "sensor_nan",
    "transient",
    "node_crash",
    "preemption",
)

#: Kinds that apply over a window / repeatedly rather than as one shot.
WINDOW_KINDS = ("straggler", "sensor_dropout", "sensor_spike", "sensor_nan")

#: Sensor-fault kinds (consulted from device power reads).
SENSOR_KINDS = ("sensor_dropout", "sensor_spike", "sensor_nan")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what it is, what it hits, and when it fires.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    label:
        Name used in provenance records and trace events; defaults to
        the kind.
    step:
        Only inject into workpackages of this step/workload (``None``
        matches every step).
    where:
        Parameter equality filter, e.g. ``{"system": "MI250"}``; every
        entry must match the workpackage's parameters.
    device:
        Device index a sensor fault targets (``None`` hits all).
    at_time_s:
        Trigger once this much *simulated* time has passed since the
        workpackage first consulted the injector (``None``: immediately
        eligible).
    duration_s:
        Window length for :data:`WINDOW_KINDS` (``None``: open-ended).
    at_step:
        Trigger at/after this optimizer-step index (``oom`` fires *at*
        it, ``straggler`` applies *from* it).
    magnitude:
        Straggler slowdown factor (>= 1), spike offset in watts, or
        memory-pressure bytes, depending on ``kind``.
    probability:
        Chance the fault is armed for a matching workpackage; the draw
        is seeded per (plan, spec, workpackage), so it is reproducible.
    max_fires:
        How many times a one-shot fault fires per workpackage (a
        ``transient`` with ``max_fires=2`` fails the first two attempts
        and lets the third succeed).
    """

    kind: str
    label: str = ""
    step: str | None = None
    where: dict[str, str] = field(default_factory=dict)
    device: int | None = None
    at_time_s: float | None = None
    duration_s: float | None = None
    at_step: int | None = None
    magnitude: float = 1.0
    probability: float = 1.0
    max_fires: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; known: {list(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must be in [0,1], got {self.probability}")
        if self.max_fires < 1:
            raise ConfigError("max_fires must be >= 1")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if self.at_time_s is not None and self.at_time_s < 0:
            raise ConfigError("at_time_s must be non-negative")
        if self.kind == "straggler" and self.magnitude < 1.0:
            raise ConfigError("straggler magnitude is a slowdown factor (>= 1)")
        if self.kind == "memory_pressure" and self.magnitude <= 0:
            raise ConfigError("memory_pressure magnitude is bytes (> 0)")
        if not self.label:
            object.__setattr__(self, "label", self.kind)
        object.__setattr__(self, "where", dict(self.where))

    @property
    def is_window(self) -> bool:
        """Whether the fault applies over a window rather than one shot."""
        return self.kind in WINDOW_KINDS

    def matches(self, step: str, parameters: dict) -> bool:
        """Whether this spec targets the given workpackage."""
        if self.step is not None and self.step != step:
            return False
        return all(str(parameters.get(k)) == str(v) for k, v in self.where.items())

    def active_at(self, rel_time_s: float) -> bool:
        """Whether a window fault is active ``rel_time_s`` into the run."""
        start = self.at_time_s if self.at_time_s is not None else 0.0
        if rel_time_s < start:
            return False
        if self.duration_s is not None and rel_time_s >= start + self.duration_s:
            return False
        return True

    def to_dict(self) -> dict:
        """Plain-mapping form (round-trips through :meth:`from_dict`)."""
        out: dict = {"kind": self.kind, "label": self.label}
        if self.step is not None:
            out["step"] = self.step
        if self.where:
            out["where"] = dict(self.where)
        if self.device is not None:
            out["device"] = self.device
        if self.at_time_s is not None:
            out["at_time_s"] = self.at_time_s
        if self.duration_s is not None:
            out["duration_s"] = self.duration_s
        if self.at_step is not None:
            out["at_step"] = self.at_step
        out["magnitude"] = self.magnitude
        out["probability"] = self.probability
        out["max_fires"] = self.max_fires
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultSpec":
        """Build a spec from a plain mapping (parsed YAML)."""
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ConfigError("fault spec must be a mapping with a 'kind'")
        known = {
            "kind", "label", "step", "where", "device", "at_time_s",
            "duration_s", "at_step", "magnitude", "probability", "max_fires",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(
                f"unknown fault spec fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(
            kind=str(raw["kind"]),
            label=str(raw.get("label", "")),
            step=None if raw.get("step") is None else str(raw["step"]),
            where={k: str(v) for k, v in (raw.get("where") or {}).items()},
            device=None if raw.get("device") is None else int(raw["device"]),
            at_time_s=(
                None if raw.get("at_time_s") is None else float(raw["at_time_s"])
            ),
            duration_s=(
                None if raw.get("duration_s") is None else float(raw["duration_s"])
            ),
            at_step=None if raw.get("at_step") is None else int(raw["at_step"]),
            magnitude=float(raw.get("magnitude", 1.0)),
            probability=float(raw.get("probability", 1.0)),
            max_fires=int(raw.get("max_fires", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults to inject into a run or campaign."""

    name: str
    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("fault plan needs a name")
        object.__setattr__(self, "faults", tuple(self.faults))

    def fingerprint(self) -> str:
        """Stable content hash; participates in campaign result keys."""
        return hashlib.sha256(_canonical(self.to_dict()).encode()).hexdigest()[:32]

    def to_dict(self) -> dict:
        """Plain-mapping form (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        """Build a plan from a plain mapping (parsed YAML/JSON)."""
        if not isinstance(doc, dict) or "name" not in doc:
            raise ConfigError("fault plan must be a mapping with a 'name'")
        return cls(
            name=str(doc["name"]),
            seed=int(doc.get("seed", 0)),
            faults=tuple(
                FaultSpec.from_dict(raw) for raw in doc.get("faults", [])
            ),
        )

    @classmethod
    def from_yaml(cls, source: str | Path) -> "FaultPlan":
        """Load a plan from YAML text or a file path."""
        text = Path(source).read_text() if isinstance(source, Path) else source
        try:
            doc = safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid fault plan YAML: {exc}") from None
        return cls.from_dict(doc)


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Load a fault plan from a YAML file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no fault plan at {p}")
    return FaultPlan.from_yaml(p)

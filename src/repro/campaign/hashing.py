"""Content addressing for campaign results.

A campaign row is keyed by a stable hash of everything that determines
its outcome: the operations its step executes, the workpackage's
parameters (plus any state seeded from dependency packages), and the
calibration constants the performance model runs on.  The simulation is
bit-deterministic (no wall clock anywhere, see ARCHITECTURE.md), so an
identical key guarantees an identical result — which is what makes the
result store an exact cache rather than a heuristic one.

The calibration fingerprint covers every constant in
``repro.engine.calibration.CALIBRATIONS`` and the package version:
recalibrating a system or upgrading the model invalidates exactly the
rows it could change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Mapping

from repro.jube.steps import Step
from repro.obs.log import get_logger

logger = get_logger(__name__)

#: Length of the hex digest used as row keys (collision-safe for any
#: realistic campaign size while staying readable in logs and CSVs).
KEY_LENGTH = 32


def canonical_json(value) -> str:
    """Deterministic JSON serialisation (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


# json.dumps(ensure_ascii=True) escapes strings through exactly this
# function, so hand-assembled fragments stay byte-identical to it.
_escape_string = json.encoder.encode_basestring_ascii


def _flat_json(mapping: Mapping) -> str | None:
    """:func:`canonical_json` of a str->str mapping, without the encoder.

    Planning hashes thousands of small parameter dicts; skipping
    ``json.dumps``'s generic machinery for the all-string common case
    is a several-x win.  Returns None when any key or value is not a
    string (caller falls back to :func:`canonical_json`).
    """
    try:
        # Unique keys mean item tuples never compare beyond the key, so
        # sorting items sorts by key; _escape_string raises TypeError
        # for any non-string key or value.
        return (
            "{"
            + ",".join(
                [
                    _escape_string(k) + ":" + _escape_string(v)
                    for k, v in sorted(mapping.items())
                ]
            )
            + "}"
        )
    except TypeError:
        return None  # non-string content: let json.dumps handle it


def _digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()[:KEY_LENGTH]


def step_fingerprint(step: Step) -> str:
    """Hash of what a step *executes*: its operation templates.

    Deliberately excludes the step's name, the surrounding script, and
    sibling steps: a row's outcome is fully determined by the commands
    it runs (templates + parameters + seeded dependency state), so
    extending a campaign with new systems or workloads — or renaming a
    workload — keeps every already-computed row a cache hit.
    """
    return _digest({"operations": list(step.operations)})


# The CALIBRATIONS entries of the last fingerprint, and that fingerprint.
_fingerprint_memo: list = [None, ""]


def calibration_fingerprint() -> str:
    """Hash of every calibration constant plus the package version.

    Memoised on the identity of the ``CALIBRATIONS`` entries: the
    calibrations are frozen, so the hash changes only when an entry is
    added, removed or replaced (``register_system``,
    ``perturbed_calibration``), and each of those recomputes it.  The
    memo holds the entries it was computed from, so no id it compares
    can be reused by another object.
    """
    from repro.engine.calibration import CALIBRATIONS
    from repro.version import __version__

    entries = tuple(CALIBRATIONS.items())
    kept, fingerprint = _fingerprint_memo
    if kept is not None and len(kept) == len(entries) and all(
        tag == kept_tag and cal is kept_cal
        for (tag, cal), (kept_tag, kept_cal) in zip(entries, kept)
    ):
        return fingerprint
    state = {
        "version": __version__,
        "calibrations": {tag: dataclasses.asdict(cal) for tag, cal in sorted(entries)},
    }
    fingerprint = _digest(state)
    _fingerprint_memo[:] = [entries, fingerprint]
    return fingerprint


class ResultKeyer:
    """Memoized :func:`result_key` for one (step, calibration, faults).

    Planning a step hashes thousands of keys that differ only in their
    parameters and seeded outputs; the step fingerprint, calibration
    hash, and fault hash — and their canonical-JSON encoding — are
    constant across the whole step.  This precomputes those fragments
    once so each key serializes only the per-combo delta, producing
    digests byte-identical to :func:`result_key`.

    The splice relies on :func:`canonical_json` sorting the state's
    top-level keys: ``calibration`` < ``faults`` < ``parameters`` <
    ``seeded`` < ``step``.
    """

    def __init__(
        self,
        step: Step | str,
        calibration_hash: str | None = None,
        fault_hash: str | None = None,
    ) -> None:
        step_hash = step_fingerprint(step) if isinstance(step, Step) else step
        if calibration_hash is None:
            calibration_hash = calibration_fingerprint()
        head = '{"calibration":' + json.dumps(calibration_hash)
        if fault_hash is not None:
            head += ',"faults":' + json.dumps(fault_hash)
        self._head = head + ',"parameters":'
        self._tail = ',"step":' + json.dumps(step_hash) + "}"

    def key(
        self,
        parameters: Mapping[str, str],
        seeded_outputs: Mapping[str, object] | None = None,
    ) -> str:
        """Content address of one workpackage (see :func:`result_key`)."""
        params = _flat_json(parameters)
        if params is None:
            params = canonical_json(dict(parameters))
        if seeded_outputs:
            seeded = _flat_json(seeded_outputs)
            if seeded is None:
                seeded = canonical_json(dict(seeded_outputs))
        else:
            seeded = "{}"
        payload = self._head + params + ',"seeded":' + seeded + self._tail
        return hashlib.sha256(payload.encode()).hexdigest()[:KEY_LENGTH]


def result_key(
    step: Step | str,
    parameters: Mapping[str, str],
    seeded_outputs: Mapping[str, object] | None = None,
    calibration_hash: str | None = None,
    fault_hash: str | None = None,
) -> str:
    """Content address of one workpackage's result.

    ``step`` is a :class:`Step` (hashed via :func:`step_fingerprint`)
    or an already-computed fingerprint string.  ``seeded_outputs`` is
    the dependency-package state flowing into the workpackage; it
    participates in the key because operations can read it.
    ``calibration_hash`` defaults to the current process's
    :func:`calibration_fingerprint`.  ``fault_hash`` is the fingerprint
    of the active fault plan, if any: a chaos campaign's rows must
    never collide with (or be cache hits for) clean rows, while the
    absence of a plan leaves keys exactly as they were.
    """
    state = {
        "step": step_fingerprint(step) if isinstance(step, Step) else step,
        "parameters": dict(parameters),
        "seeded": dict(seeded_outputs or {}),
        "calibration": (
            calibration_hash
            if calibration_hash is not None
            else calibration_fingerprint()
        ),
    }
    if fault_hash is not None:
        state["faults"] = fault_hash
    key = _digest(state)
    logger.debug("result key %s <- %s", key, state["parameters"])
    return key

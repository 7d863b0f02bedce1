"""JUBE parameter sets, expansion and substitution.

A parameter has a name and either a single value or a list of values;
multi-valued parameters expand the benchmark into one workpackage per
element of the Cartesian product ("JUBE simplifies ... scaling
experiments by automatically generating job scripts with different
parameter permutations", paper §III-A3).  Parameters may be restricted
to tags, mirroring JUBE's ``tag=`` attribute.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import JubeError

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_SUBST_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}|\$([A-Za-z_][A-Za-z0-9_]*)")

#: Maximum substitution passes before declaring a cycle.
MAX_SUBSTITUTION_DEPTH = 16


@dataclass(frozen=True)
class Parameter:
    """One parameter definition.

    ``values`` always holds strings (JUBE parameters are strings until
    used); multi-valued parameters drive the expansion.  ``tags``
    restricts the parameter to runs that carry *any* of those tags
    (empty = always active).
    """

    name: str
    values: tuple[str, ...]
    tags: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise JubeError(f"invalid parameter name {self.name!r}")
        if not self.values:
            raise JubeError(f"parameter {self.name!r} has no values")

    @classmethod
    def make(cls, name: str, value, tags: Iterable[str] = ()) -> "Parameter":
        """Build a parameter from a scalar or list of scalars."""
        if isinstance(value, (list, tuple)):
            values = tuple(str(v) for v in value)
        else:
            values = (str(value),)
        return cls(name=name, values=values, tags=frozenset(tags))

    def active_for(self, tags: frozenset[str]) -> bool:
        """Whether this parameter applies under the given run tags."""
        return not self.tags or bool(self.tags & tags)


class ParameterSet:
    """A named, ordered collection of parameters.

    Later definitions of the same name override earlier ones *when both
    are active* -- that is how JUBE scripts specialise defaults per
    system tag.
    """

    def __init__(self, name: str) -> None:
        if not _NAME_RE.match(name):
            raise JubeError(f"invalid parameter set name {name!r}")
        self.name = name
        self.parameters: list[Parameter] = []

    def add(self, parameter: Parameter) -> None:
        """Append a parameter definition."""
        self.parameters.append(parameter)

    def resolve(self, tags: frozenset[str]) -> dict[str, tuple[str, ...]]:
        """Active parameters under tags, with later overrides winning."""
        out: dict[str, tuple[str, ...]] = {}
        for p in self.parameters:
            if p.active_for(tags):
                out[p.name] = p.values
        return out


def expand_parameter_space(
    sets: Iterable[ParameterSet], tags: Iterable[str] = ()
) -> list[dict[str, str]]:
    """Cartesian product over all multi-valued active parameters.

    Sets are merged in order (later sets override same-named
    parameters); the result is one flat dict per combination, in
    deterministic order.
    """
    tagset = frozenset(tags)
    merged: dict[str, tuple[str, ...]] = {}
    for pset in sets:
        merged.update(pset.resolve(tagset))
    if not merged:
        return [{}]
    names = list(merged)
    combos = itertools.product(*(merged[n] for n in names))
    return [dict(zip(names, combo)) for combo in combos]


def referenced(template: str) -> set[str]:
    """Names of the parameters ``template`` references (``$name``/``${name}``)."""
    return {braced or bare for braced, bare in _SUBST_RE.findall(template)}


def substitute(template: str, values: Mapping[str, str]) -> str:
    """Resolve ``$name`` / ``${name}`` references to a fixpoint.

    Raises
    ------
    JubeError
        On an unknown parameter reference or a substitution cycle.
    """

    def _lookup(match: re.Match) -> str:
        name = match.group(1) or match.group(2)
        try:
            return str(values[name])
        except KeyError:
            raise JubeError(f"undefined parameter ${name} in {template!r}") from None

    current = template
    for _ in range(MAX_SUBSTITUTION_DEPTH):
        resolved = _SUBST_RE.sub(_lookup, current)
        if resolved == current:
            return resolved
        current = resolved
    raise JubeError(f"substitution did not converge for {template!r} (cycle?)")

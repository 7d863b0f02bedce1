"""Quality gate: no shipped code whose only caller is a test.

Every public function, class and method under ``src/repro``, and every
public UPPER_CASE module constant, must be referenced from shipped
code: the package itself, ``benchmarks/``, ``examples/``,
``hostbench/``, the Makefile, the CI workflow, the packaging metadata
or the shipped JUBE scripts. A reference is an AST name, attribute,
import alias, or string constant that is a bare or dotted identifier
(hostbench wraps entry points named that way). A constant's value is
its body: what only a dead constant references is dead too.
``__init__`` re-exports and ``__all__`` entries are not callers. A
definition registered by a decorator (a router, an operation) is live.

References are matched by name, and only count from code that is
itself live: the scan iterates to a fixpoint, so a definition called
only by another test-only definition is found too. A reference from
inside a definition's own body does not keep it alive.

``KEEP`` names the few definitions that stay although only tests call
them, each with its reason. An entry that gains a shipped caller, or
whose definition is gone, fails the gate so the list cannot go stale.

Run this file directly to print the scan.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "hostbench")
CALLER_FILES = ("Makefile", ".github/workflows/ci.yml", "pyproject.toml", "setup.py")
SCRIPT_SUFFIXES = (".yaml", ".yml", ".xml")
#: A string that names a definition: ``"energy"``, ``"Router.route"``,
#: ``"repro.core.cli:main"``.
DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")
#: A public module constant: ``GIGA = 1e9``, ``SYSTEM_TAGS: tuple = ...``.
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")

#: Decorators that wrap a definition without registering it anywhere.
#: Any other decorator (``@operation``, ``@register_router(...)``) makes
#: the definition live.
PLAIN_DECORATORS = {
    "property", "setter", "getter", "deleter", "staticmethod", "classmethod",
    "dataclass", "wraps", "cache", "lru_cache", "cached_property",
    "contextmanager", "abstractmethod", "total_ordering",
}

#: Definitions that stay although only tests reach them, with the reason.
KEEP = {
    "repro.jpwr.export.read_frame":
        "round-trips the frames jpwr writes to disk",
    "repro.jpwr.frame.DataFrame.from_json":
        "round-trips DataFrame.to_json, the jpwr JSON export",
    "repro.data.tokenizer.BPETokenizer.from_json":
        "round-trips BPETokenizer.to_json, the tokenizer the data step saves",
    "repro.obs.sinks.InMemorySink":
        "the only handle tests have on the records the loggers emit",
    "repro.obs.metrics.MetricsRegistry.reset":
        "isolates tests that read the process-wide metrics registry",
    "repro.serve.result.ServeResult.has_records":
        "the serve-equivalence CI job checks records through it",
    "repro.obs.telemetry.sketch.P2Quantile.state_json":
        "the byte-determinism check compares sketch states through it",
    "repro.power.sensors.SimulatedDevice.repair":
        "fault-injection tests restore a failed device through it",
    "repro.obs.telemetry.sketch.P2_RANK_TOLERANCE":
        "the documented accuracy contract tests/telemetry/test_sketch.py asserts",
    "repro.obs.telemetry.sketch.P2_SORTED_RANK_TOLERANCE":
        "the documented accuracy contract tests/telemetry/test_sketch.py asserts",
    "repro.obs.telemetry.sketch.P2_MIN_SAMPLES_FOR_BOUND":
        "the documented accuracy contract tests/telemetry/test_sketch.py asserts",
}


@dataclass(eq=False)
class Definition:
    """One function, class or method defined in the package."""

    name: str
    qualname: str
    path: Path
    line: int
    lines: int
    parent: Definition | None
    root: bool
    children: list[Definition] = field(default_factory=list)

    def contains(self, other: Definition | None) -> bool:
        while other is not None:
            if other is self:
                return True
            other = other.parent
        return False

    @property
    def public(self) -> bool:
        return not self.name.startswith("_")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


class _Indexer(ast.NodeVisitor):
    """Collects definitions and the names referenced from each of them."""

    def __init__(
        self, path: Path, definitions: list, names: dict, attrs: dict, track: bool
    ):
        self.path = path
        self.module = _module_name(path) if track else ""
        self.definitions = definitions
        self.names = names
        self.attrs = attrs
        self.track = track
        self.is_init = path.name == "__init__.py"
        self.scope: Definition | None = None
        self.in_function = False

    def _define(self, node, name: str = "") -> None:
        """Index ``node`` as a definition, its body as that definition's scope.

        A function, class or method, or (with ``name``) a module constant.
        """
        if not self.track or self.in_function:
            self.generic_visit(node)
            return
        name = name or node.name
        parent = self.scope
        qualname = f"{parent.qualname if parent else self.module}.{name}"
        decorators = getattr(node, "decorator_list", [])
        dunder = name.startswith("__") and name.endswith("__")
        registered = any(
            _decorator_name(d) not in PLAIN_DECORATORS for d in decorators
        )
        definition = Definition(
            name=name,
            qualname=qualname,
            path=self.path,
            line=node.lineno,
            lines=node.end_lineno - min(
                [node.lineno] + [d.lineno for d in decorators]
            ) + 1,
            parent=parent,
            root=dunder or registered,
        )
        self.definitions.append(definition)
        if parent is not None:
            parent.children.append(definition)
        saved = self.scope, self.in_function
        self.scope = definition
        self.in_function = not isinstance(node, ast.ClassDef)
        self.generic_visit(node)
        self.scope, self.in_function = saved

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _name(self, name: str) -> None:
        self.names[self.scope].add(name)

    def _attr(self, name: str) -> None:
        self.attrs[self.scope].add(name)

    def visit_Name(self, node: ast.Name) -> None:
        self._name(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._attr(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and DOTTED.fullmatch(node.value):
            for part in re.split("[.:]", node.value):
                self._attr(part)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            for part in alias.name.split("."):
                self._name(part)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.is_init and self.track:
            return  # a package re-export is not a caller
        for part in (node.module or "").split("."):
            self._name(part)
        for alias in node.names:
            self._name(alias.name)

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return
        self._assign(node, node.targets)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._assign(node, [node.target])

    def _assign(self, node, targets: list) -> None:
        """A public UPPER_CASE module constant is a definition; else code."""
        name = getattr(targets[0], "id", "") if len(targets) == 1 else ""
        if self.scope is None and CONSTANT.fullmatch(name):
            self._define(node, name)
        else:
            self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if getattr(node.target, "id", None) == "__all__":
            return
        self.generic_visit(node)


@dataclass
class Index:
    """Every package definition and the names each scope references."""

    definitions: list[Definition]
    by_name: dict[str, list[Definition]]
    names: dict  # scope -> bare names and import aliases it references
    attrs: dict  # scope -> attributes and identifier strings it references
    test_names: set[str]


def _python_files(directory: Path):
    return sorted(p for p in directory.rglob("*.py") if "__pycache__" not in p.parts)


@functools.cache
def build_index() -> Index:
    """Parse the package, its shipped callers and the tests once."""
    definitions: list[Definition] = []
    names: dict = defaultdict(set)
    attrs: dict = defaultdict(set)
    for directory in CALLER_DIRS:
        for path in _python_files(ROOT / directory):
            track = PACKAGE in path.parents
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            _Indexer(path, definitions, names, attrs, track).visit(tree)
    words = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    texts = [ROOT / name for name in CALLER_FILES]
    texts += [p for p in PACKAGE.rglob("*") if p.suffix in SCRIPT_SUFFIXES]
    for path in texts:
        if path.is_file():
            attrs[None].update(words.findall(path.read_text(encoding="utf-8")))

    test_refs: dict = defaultdict(set)
    for path in _python_files(ROOT / "tests"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _Indexer(path, [], test_refs, test_refs, False).visit(tree)

    by_name = defaultdict(list)
    for d in definitions:
        by_name[d.name].append(d)
    return Index(definitions, dict(by_name), names, attrs, test_refs[None])


def live_definitions(index: Index, keep) -> set[Definition]:
    """Definitions shipped code reaches, propagated to a fixpoint.

    The roots are module-level code, decorator-registered and dunder
    definitions, and the ``keep`` qualnames.  A method is reached
    through an attribute or a string; a bare name reaches it only from
    inside its own class.  A method is live only while its class is.
    """
    marked: set[Definition] = set()
    live: set[Definition] = set()
    queue: list[Definition | None] = [None]

    def mark(d: Definition) -> None:
        if d not in marked:
            marked.add(d)
            if d.parent is None or d.parent in live:
                live.add(d)
                queue.append(d)

    for d in index.definitions:
        if d.root or d.qualname in keep:
            mark(d)
    while queue:
        scope = queue.pop()
        for name in index.attrs.get(scope, ()):
            for d in index.by_name.get(name, ()):
                if not d.contains(scope):
                    mark(d)
        for name in index.names.get(scope, ()):
            for d in index.by_name.get(name, ()):
                in_class = d.parent is None or d.parent.contains(scope)
                if in_class and not d.contains(scope):
                    mark(d)
        for child in scope.children if scope is not None else ():
            if child in marked and child not in live:
                live.add(child)
                queue.append(child)
    return live


def dead_definitions(index: Index, live: set[Definition]) -> list[Definition]:
    """Public definitions outside ``live``, outermost only."""
    return [
        d for d in index.definitions
        if d.public and d not in live and (d.parent is None or d.parent in live)
    ]


def _describe(index: Index, d: Definition) -> str:
    where = "tests only" if d.name in index.test_names else "no caller"
    path = d.path.relative_to(ROOT)
    return f"{path}:{d.line} {d.qualname} ({d.lines} lines, {where})"


def test_no_public_definition_is_reached_only_from_tests():
    index = build_index()
    live = live_definitions(index, KEEP)
    dead = [_describe(index, d) for d in dead_definitions(index, live)]
    assert not dead, (
        "public definitions no shipped code reaches; delete them or give "
        "them a shipped caller:\n  " + "\n  ".join(dead)
    )


def test_keep_list_is_current():
    index = build_index()
    by_qualname = {d.qualname: d for d in index.definitions}
    missing = [q for q in KEEP if q not in by_qualname]
    assert not missing, f"KEEP names definitions that no longer exist: {missing}"
    live = live_definitions(index, keep=())
    shipped = [q for q in KEEP if by_qualname[q] in live]
    assert not shipped, f"KEEP entries now have a shipped caller; drop them: {shipped}"


if __name__ == "__main__":
    index = build_index()
    dead = dead_definitions(index, live_definitions(index, keep=()))
    for d in dead:
        print(_describe(index, d))
    print(f"{len(dead)} definitions, {sum(d.lines for d in dead)} lines")

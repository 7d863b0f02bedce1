"""Quality gate: every option has a setter.

An option is a parameter with a default of a function or method under
``src/repro`` (an ``__init__``'s parameters belong to its class), or a
field with a default of a frozen dataclass.  Non-frozen dataclasses hold
run state, such as report counters, and are not scanned.

An option is set when some call in ``src/``, ``benchmarks/``,
``examples/``, ``hostbench/`` or ``tests/`` names its callee, as a bare
name or as the last attribute, and passes it by keyword, by position,
or through ``*args``/``**kwargs``.  These calls name a class too:
``cls(...)`` in its classmethods, ``type(self)(...)`` in its methods, a
call of a subclass that takes its constructor, and
``super().__init__(...)`` inside a subclass.  ``dataclasses.replace(x, name=...)`` sets the frozen-dataclass
fields called ``name``.  A test that sets an option counts: tests use
options as seams.  A default nothing overrides is a constant that looks
like an option; make it the constant.

``KEEP`` names the options that stay although no call sets them by
name, each with its reason.  An entry that gains a setter, or whose
option is gone, fails the gate so the list cannot go stale.

Run this file directly to print the scan and the count of settable
values in ``src/repro`` (parameters with a default, dataclass fields and
``add_argument`` flags).
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "hostbench", "tests")

_METRIC_HELP = (
    "set by position: MetricsRegistry._get_or_create calls the instrument "
    "class it is handed as cls(name, help), which no name resolves"
)
_CALIBRATION = (
    "a field of the calibration record register_system takes for a user's "
    "own system; the seven Table I systems share the default, and the "
    "sensitivity sweep does not perturb it"
)

#: Options no call sets by name, with the reason each stays.
KEEP = {
    "repro.obs.metrics.Counter(help)": _METRIC_HELP,
    "repro.obs.metrics.Gauge(help)": _METRIC_HELP,
    "repro.obs.metrics.Histogram(help)": _METRIC_HELP,
    "repro.engine.calibration.SystemCalibration(llm_step_overhead_s)": _CALIBRATION,
    "repro.engine.calibration.SystemCalibration(cnn_step_overhead_s)": _CALIBRATION,
    "repro.engine.calibration.SystemCalibration(host_cache_sensitivity)": _CALIBRATION,
    "repro.engine.calibration.SystemCalibration(decode_rate_per_core)": _CALIBRATION,
}


@dataclass(frozen=True)
class Option:
    """One parameter or frozen-dataclass field with a default."""

    owner: str  # qualified name of the function or class
    name: str
    callee: str  # the name a call uses: the function, method or class
    position: int | None  # index among the call's positional arguments
    field: bool  # a frozen-dataclass field, which ``replace`` can set
    path: Path
    line: int

    @property
    def key(self) -> str:
        return f"{self.owner}({self.name})"


@dataclass(frozen=True)
class Call:
    """What one call site passes."""

    callee: str
    positional: int  # explicit positional arguments before any ``*args``
    star: bool
    keywords: frozenset[str]
    double_star: bool

    def sets(self, option: Option) -> bool:
        if option.name in self.keywords or self.double_star:
            return True
        if option.position is None:
            return False
        return option.position < self.positional or self.star


def _python_files(directory: Path):
    return sorted(p for p in directory.rglob("*.py") if "__pycache__" not in p.parts)


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def _keyword_value(call: ast.Call, name: str):
    return next((k.value for k in call.keywords if k.arg == name), None)


def _dataclass(node: ast.ClassDef) -> ast.expr | None:
    return next((d for d in node.decorator_list if _name(d) == "dataclass"), None)


def _frozen(decorator: ast.expr | None) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    frozen = _keyword_value(decorator, "frozen")
    return isinstance(frozen, ast.Constant) and frozen.value is True


def _init_field(statement: ast.stmt) -> ast.AnnAssign | None:
    """The statement if it declares a dataclass ``__init__`` field."""
    if not isinstance(statement, ast.AnnAssign):
        return None
    if not isinstance(statement.target, ast.Name):
        return None
    if "ClassVar" in ast.unparse(statement.annotation):
        return None
    value = statement.value
    if isinstance(value, ast.Call) and _name(value) == "field":
        init = _keyword_value(value, "init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
    return statement


@dataclass
class _Class:
    qualname: str
    node: ast.ClassDef
    path: Path

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def bases(self) -> list[str]:
        return [_name(b) for b in self.node.bases]

    @property
    def dataclass(self) -> bool:
        return _dataclass(self.node) is not None

    @property
    def frozen(self) -> bool:
        return _frozen(_dataclass(self.node))

    @property
    def own_init(self) -> bool:
        """Whether the class has a constructor of its own."""
        return self.dataclass or any(
            isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            and s.name == "__init__"
            for s in self.node.body
        )


class _OptionIndexer(ast.NodeVisitor):
    """Collects the package's classes and its functions' options."""

    def __init__(self, path: Path, options: list, classes: list):
        self.path = path
        self.options = options
        self.classes = classes
        self.scope = [_module_name(path)]
        self.cls: ast.ClassDef | None = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = ".".join([*self.scope, node.name])
        self.classes.append(_Class(qualname, node, self.path))
        saved = self.cls
        self.cls = node
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        self.cls = saved

    def visit_FunctionDef(self, node) -> None:
        method = self.cls is not None and self.scope[-1] == self.cls.name
        decorators = {_name(d) for d in node.decorator_list}
        positional = [*node.args.posonlyargs, *node.args.args]
        if method and "staticmethod" not in decorators:
            positional = positional[1:]  # self or cls
        if node.name == "__init__" and method:
            owner, callee = ".".join(self.scope), self.cls.name
        else:
            owner, callee = ".".join([*self.scope, node.name]), node.name
        defaults = node.args.defaults
        for index, arg in enumerate(positional[len(positional) - len(defaults):]):
            self.options.append(Option(
                owner, arg.arg, callee, len(positional) - len(defaults) + index,
                False, self.path, arg.lineno,
            ))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                self.options.append(
                    Option(owner, arg.arg, callee, None, False, self.path, arg.lineno)
                )
        saved = self.cls
        self.cls = None
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        self.cls = saved

    visit_AsyncFunctionDef = visit_FunctionDef


class _CallIndexer(ast.NodeVisitor):
    """Collects every call site, and the fields ``replace`` sets."""

    def __init__(self, calls: list, replaced: set):
        self.calls = calls
        self.replaced = replaced
        self.scopes: list[ast.AST] = []  # enclosing classes and functions

    def _visit_scope(self, node) -> None:
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _visit_scope

    def _enclosing_class(self) -> ast.ClassDef | None:
        classes = [s for s in self.scopes if isinstance(s, ast.ClassDef)]
        return classes[-1] if classes else None

    def _cls(self) -> list[str]:
        """The class ``cls`` names: a classmethod's first parameter.

        Any other ``cls`` is a class passed in as a value, which no
        name resolves.
        """
        for i in range(len(self.scopes) - 1, 0, -1):
            function, owner = self.scopes[i], self.scopes[i - 1]
            if isinstance(function, ast.ClassDef):
                break
            params = [a.arg for a in [*function.args.posonlyargs, *function.args.args]]
            if "cls" in params:
                if params[0] == "cls" and isinstance(owner, ast.ClassDef):
                    return [owner.name]
                break
        return []

    def _callees(self, func: ast.expr) -> list[str]:
        if isinstance(func, ast.Name) and func.id == "cls":
            return self._cls()
        enclosing = self._enclosing_class()
        if isinstance(func, ast.Call) and _name(func) == "type" and enclosing:
            return [enclosing.name]
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and _name(func.value) == "super"
            and enclosing
        ):
            return [_name(b) for b in enclosing.bases]
        return [_name(func)]

    def visit_Call(self, node: ast.Call) -> None:
        if _name(node.func) == "replace":
            self.replaced.update(k.arg for k in node.keywords if k.arg)
        starred = [isinstance(a, ast.Starred) for a in node.args]
        positional = starred.index(True) if any(starred) else len(node.args)
        keywords = frozenset(k.arg for k in node.keywords if k.arg)
        double_star = any(k.arg is None for k in node.keywords)
        for callee in self._callees(node.func):
            self.calls.append(
                Call(callee, positional, any(starred), keywords, double_star)
            )
        self.generic_visit(node)


@dataclass
class Index:
    """The package's options and every call site that could set them."""

    options: list[Option]
    calls: dict[str, list[Call]]  # callee name -> call sites
    replaced: set[str]  # field names some ``replace`` call sets


def _fields(cls: _Class, by_name: dict) -> list[ast.AnnAssign]:
    """A dataclass's ``__init__`` fields, inherited ones first."""
    inherited = []
    for base in cls.bases:
        parent = by_name.get(base)
        if parent is not None and parent.frozen:
            inherited += _fields(parent, by_name)
    own = [f for f in map(_init_field, cls.node.body) if f is not None]
    names = {f.target.id for f in own}
    return [f for f in inherited if f.target.id not in names] + own


def _constructor_callees(classes: list[_Class]) -> dict[str, set[str]]:
    """Class name -> the names whose calls pass its constructor options.

    A subclass without a constructor of its own takes its base's, and a
    dataclass's constructor takes the fields of its dataclass bases.
    """
    by_name = {c.name: c for c in classes}
    callees = {c.name: {c.name} for c in classes}
    changed = True
    while changed:
        changed = False
        for c in classes:
            for base in map(by_name.get, c.bases):
                if base is None:
                    continue
                takes = not c.own_init or (c.dataclass and base.dataclass)
                if takes and not callees[c.name] <= callees[base.name]:
                    callees[base.name] |= callees[c.name]
                    changed = True
    return callees


@functools.cache
def build_index() -> Index:
    """Parse the package's options and every call site once."""
    options: list[Option] = []
    classes: list[_Class] = []
    calls: list[Call] = []
    replaced: set[str] = set()
    for directory in CALLER_DIRS:
        for path in _python_files(ROOT / directory):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            if PACKAGE in path.parents:
                _OptionIndexer(path, options, classes).visit(tree)
            _CallIndexer(calls, replaced).visit(tree)

    by_name = {c.name: c for c in classes}
    for c in classes:
        if not c.frozen:
            continue
        for position, f in enumerate(_fields(c, by_name)):
            if f.value is not None and f in c.node.body:
                options.append(Option(
                    c.qualname, f.target.id, c.name, position, True, c.path,
                    f.lineno,
                ))

    by_callee: dict[str, list[Call]] = defaultdict(list)
    for call in calls:
        by_callee[call.callee].append(call)

    constructors = {
        name: [call for alias in aliases for call in by_callee.get(alias, ())]
        for name, aliases in _constructor_callees(classes).items()
    }
    return Index(options, {**by_callee, **constructors}, replaced)


def is_set(index: Index, option: Option) -> bool:
    if any(call.sets(option) for call in index.calls.get(option.callee, ())):
        return True
    return option.field and option.name in index.replaced


def unset_options(index: Index) -> list[Option]:
    return [o for o in index.options if not is_set(index, o)]


def _describe(option: Option) -> str:
    return f"{option.path.relative_to(ROOT)}:{option.line} {option.key}"


def settable_values(package: Path = PACKAGE) -> dict[str, int]:
    """Parameters with a default, dataclass fields and ``add_argument`` flags."""
    counts = {"parameters": 0, "fields": 0, "flags": 0}
    for path in _python_files(package):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                counts["parameters"] += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults
                )
            elif isinstance(node, ast.ClassDef) and any(
                _name(d) == "dataclass" for d in node.decorator_list
            ):
                counts["fields"] += sum(isinstance(s, ast.AnnAssign) for s in node.body)
            elif (
                isinstance(node, ast.Call)
                and _name(node.func) == "add_argument"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and str(node.args[0].value).startswith("-")
            ):
                counts["flags"] += 1
    return counts


def test_every_option_has_a_setter():
    index = build_index()
    unset = [_describe(o) for o in unset_options(index) if o.key not in KEEP]
    assert not unset, (
        "options no call sets; make each the constant it always is, or "
        "give it a caller:\n  " + "\n  ".join(unset)
    )


def test_keep_list_is_current():
    index = build_index()
    by_key = {o.key: o for o in index.options}
    missing = [key for key in KEEP if key not in by_key]
    assert not missing, f"KEEP names options that no longer exist: {missing}"
    set_now = [key for key in KEEP if is_set(index, by_key[key])]
    assert not set_now, f"KEEP entries now have a setter; drop them: {set_now}"


if __name__ == "__main__":
    index = build_index()
    unset = unset_options(index)
    for option in unset:
        print(_describe(option) + ("  (KEEP)" if option.key in KEEP else ""))
    counts = settable_values()
    print(f"{len(unset)} unset options of {len(index.options)}")
    print(f"settable values in src/repro: {sum(counts.values())} {counts}")

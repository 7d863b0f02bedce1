"""The JUBE runtime: ``run``, ``continue``, ``result``.

"The JUBE runtime interprets the script, resolves dependencies and
submits jobs to the Slurm batch system" (paper §III-A3).  Operations
are dispatched through a registry; the CARAML benchmarks register
operations that submit work to the simulated Slurm scheduler.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.errors import JubeError
from repro.faults.injector import get_injector
from repro.jube.parameters import expand_parameter_space, referenced, substitute
from repro.jube.result import ResultTable, render_table
from repro.jube.script import BenchmarkScript
from repro.jube.steps import Step, Workpackage, order_steps
from repro.obs.log import get_logger
from repro.obs.trace import get_tracer

logger = get_logger(__name__)

#: Operation signature: (args, workpackage) -> optional dict of outputs.
Operation = Callable[[dict[str, str], Workpackage], dict | None]


def parse_operation(command: str) -> tuple[str, dict[str, str]]:
    """Split a substituted ``opname --key value [--flag] ...`` command.

    Returns the operation name and its raw arguments; a bare ``--flag``
    becomes ``"true"``.  Positional tokens are a :class:`JubeError`.
    """
    tokens = shlex.split(command)
    if not tokens:
        raise JubeError("empty operation command")
    name, *rest = tokens
    args: dict[str, str] = {}
    i = 0
    while i < len(rest):
        token = rest[i]
        if not token.startswith("--"):
            raise JubeError(f"unexpected token {token!r} in {command!r}")
        key = token[2:]
        if i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            args[key] = rest[i + 1]
            i += 2
        else:
            args[key] = "true"
            i += 1
    return name, args


class OperationRegistry:
    """Named operations steps can invoke from their ``do`` strings."""

    def __init__(self) -> None:
        self._ops: dict[str, Operation] = {}

    def register(self, name: str, op: Operation | None = None):
        """Register an operation; usable as a decorator."""
        if op is None:
            def decorator(fn: Operation) -> Operation:
                self.register(name, fn)
                return fn

            return decorator
        if name in self._ops:
            raise JubeError(f"operation {name!r} already registered")
        self._ops[name] = op
        return op

    def names(self) -> list[str]:
        """Registered operation names."""
        return sorted(self._ops)

    def dispatch(self, command: str, wp: Workpackage) -> None:
        """Parse and execute one substituted operation command.

        Command syntax as in :func:`parse_operation`; results returned
        by the operation are recorded on the workpackage.
        """
        name, args = parse_operation(command)
        try:
            op = self._ops[name]
        except KeyError:
            raise JubeError(
                f"unknown operation {name!r}; registered: {self.names()}"
            ) from None
        outputs = op(args, wp)
        if outputs:
            for key, value in outputs.items():
                wp.record(key, value)


# -- workpackage execution ------------------------------------------------
#
# One step's workpackages are independent of each other (dependencies
# exist only *between* steps), so each is described by a self-contained,
# picklable :class:`WorkItem` and executed by :func:`execute_workpackage`
# into a :class:`WorkResult`.  The JUBE runner executes a step's items in
# order in-process; ``repro.campaign.executor`` runs the same items
# through a process pool behind :class:`WorkpackageExecutor`.


@dataclass(frozen=True)
class WorkItem:
    """Everything needed to execute one workpackage, picklable.

    ``outputs`` and ``stdout`` carry the state seeded from dependency
    packages (JUBE's dependency directories).
    """

    step: Step
    parameters: dict[str, str]
    index: int
    outputs: dict[str, object] = field(default_factory=dict)
    stdout: str = ""


@dataclass
class WorkResult:
    """Outcome of executing one :class:`WorkItem`.

    ``error`` is ``None`` on success; executors that capture failures
    (campaign mode) record ``"ExcType: message"`` instead of raising.
    ``attempts`` counts executions including retries.  ``faults`` is
    the provenance of injected faults that fired during execution
    (chaos campaigns); ``degraded`` marks a result that completed
    despite fired faults — valid, but measured under duress.
    """

    outputs: dict[str, object] = field(default_factory=dict)
    stdout: str = ""
    error: str | None = None
    attempts: int = 1
    faults: list = field(default_factory=list)
    degraded: bool = False


def execute_workpackage(registry: OperationRegistry, item: WorkItem) -> WorkResult:
    """Execute one workpackage's operations; exceptions propagate.

    The active fault-injection scope is consulted first: an armed
    ``transient`` or ``node_crash`` fault aborts the attempt with
    :class:`~repro.errors.TransientError` before any operation runs,
    which is exactly the failure the campaign retry/backoff executor
    exists to absorb.
    """
    wp = Workpackage(step=item.step, parameters=dict(item.parameters), index=item.index)
    wp.outputs.update(item.outputs)
    wp.stdout = item.stdout
    attrs = {"step": item.step.name, "index": item.index, **item.parameters}
    with get_tracer().span("jube/workpackage", attrs=attrs):
        get_injector().check_workpackage_start()
        for template in item.step.operations:
            command = substitute(template, item.parameters)
            logger.debug(
                "workpackage %s#%d: %s", item.step.name, item.index, command
            )
            registry.dispatch(command, wp)
    return WorkResult(outputs=wp.outputs, stdout=wp.stdout)


def work_item_for(
    step: Step,
    combo: dict[str, str],
    index: int,
    packages_for: Callable[[str], list],
) -> WorkItem:
    """Build a step's work item, seeding dependency state.

    Results and logs of dependency packages with matching parameters
    flow into the item (JUBE's dependency directories: outputs and the
    job stdout are both visible).  ``packages_for`` maps a step name to
    its finished packages — anything with ``parameters`` / ``outputs``
    / ``stdout`` attributes.
    """
    outputs: dict[str, object] = {}
    stdout = ""
    for dep in step.depends:
        for dep_wp in packages_for(dep):
            if all(combo.get(k, v) == v for k, v in dep_wp.parameters.items()):
                outputs.update(dep_wp.outputs)
                if dep_wp.stdout:
                    stdout += dep_wp.stdout
    return WorkItem(
        step=step, parameters=combo, index=index, outputs=outputs, stdout=stdout
    )


class WorkpackageExecutor(Protocol):
    """How a campaign executes one step's work items.

    Implementations must return one :class:`WorkResult` per item, in
    item order, and must not reorder or drop items; a barrier at the
    end of each step (returning only when every item finished) is what
    keeps dependency-ordered steps correct.
    """

    def run_items(self, items: list[WorkItem]) -> list[WorkResult]:
        """Execute the items of one step."""
        ...  # pragma: no cover


@dataclass
class JubeRun:
    """State of one benchmark run (JUBE's run directory equivalent)."""

    script: BenchmarkScript
    tags: frozenset[str]
    workpackages: list[Workpackage] = field(default_factory=list)
    completed_steps: set[str] = field(default_factory=set)

    @property
    def id(self) -> str:
        """Run identifier."""
        return f"{self.script.name}[{','.join(sorted(self.tags))}]"

    def packages_for(self, step_name: str) -> list[Workpackage]:
        """Workpackages of one step."""
        return [wp for wp in self.workpackages if wp.step.name == step_name]


def _check_tag_guarded_parameters(
    script: BenchmarkScript, step: Step, tags: frozenset[str]
) -> None:
    """Fail when ``step`` uses a parameter defined only under other tags.

    The shipped scripts define ``system`` only under the system tags;
    without one, the step that substitutes ``$system`` would fail
    mid-run without naming the remedy.
    """
    sets = [script.parameter_set(name) for name in step.parameter_sets]
    active = set().union(*(pset.resolve(tags) for pset in sets))
    for name in sorted(set().union(*map(referenced, step.operations)) - active):
        guards = [
            tag
            for pset in sets
            for parameter in pset.parameters
            if parameter.name == name
            for tag in sorted(parameter.tags)
        ]
        if guards:
            raise JubeError(
                f"step {step.name!r} uses ${name}, which is defined only under "
                f"the tags {', '.join(dict.fromkeys(guards))}; pass --tag with "
                "one of them"
            )


class JubeRunner:
    """Executes benchmark scripts against an operation registry.

    A step's workpackages run in order in this process, and a dependent
    step only starts once every package of its dependencies finished.
    """

    def __init__(self, registry: OperationRegistry) -> None:
        self.registry = registry

    # -- run ------------------------------------------------------------

    def run(self, script: BenchmarkScript, tags: list[str] | tuple[str, ...] = ()) -> JubeRun:
        """``jube run``: execute all non-continue steps under the tags."""
        script.validate()
        tagset = frozenset(tags)
        run = JubeRun(script=script, tags=tagset)
        ordered = order_steps(script.steps, tagset)
        for step in ordered:
            _check_tag_guarded_parameters(script, step, tagset)
        for step in ordered:
            if step.name in script.continue_steps:
                continue  # executed by continue_run (jube continue)
            self._run_step(run, step)
        return run

    def continue_run(self, run: JubeRun) -> JubeRun:
        """``jube continue``: execute the deferred post-processing steps."""
        ordered = order_steps(run.script.steps, run.tags)
        for step in ordered:
            if step.name not in run.script.continue_steps:
                continue
            for dep in step.depends:
                dep_step = next(s for s in run.script.steps if s.name == dep)
                if dep_step.active_for(run.tags) and dep not in run.completed_steps:
                    raise JubeError(
                        f"continue step {step.name!r} depends on "
                        f"incomplete step {dep!r}"
                    )
            self._run_step(run, step)
        return run

    def _run_step(self, run: JubeRun, step: Step) -> None:
        sets = [run.script.parameter_set(name) for name in step.parameter_sets]
        combos = expand_parameter_space(sets, run.tags)
        base_index = len(run.packages_for(step.name))
        items = [
            work_item_for(step, combo, base_index + i, run.packages_for)
            for i, combo in enumerate(combos)
        ]
        logger.info("step %s: %d workpackages", step.name, len(items))
        with get_tracer().span(
            "jube/step", attrs={"step": step.name, "workpackages": len(items)}
        ):
            results = [execute_workpackage(self.registry, item) for item in items]
        for item, result in zip(items, results):
            wp = Workpackage(step=step, parameters=item.parameters, index=item.index)
            wp.outputs = dict(result.outputs)
            wp.stdout = result.stdout
            wp.done = True
            run.workpackages.append(wp)
        run.completed_steps.add(step.name)

    # -- result --------------------------------------------------------------

    def result(self, run: JubeRun, table_name: str | None = None) -> str:
        """``jube result``: render a result table of a finished run."""
        if not run.script.results:
            raise JubeError(f"script {run.script.name!r} defines no result tables")
        table: ResultTable = (
            run.script.result_table(table_name)
            if table_name is not None
            else run.script.results[0]
        )
        rows = table.rows(run.packages_for(table.step))
        return render_table(table.columns, rows)

"""Simulated Slurm batch system.

JUBE submits benchmark steps as batch jobs; this module provides the
scheduler those submissions land on.  It models the parts of Slurm that
CARAML's workflow actually exercises: partitions backed by the Table I
node types, ``--ntasks/--cpus-per-task/--gpus-per-task`` resource
requests, FIFO scheduling onto free nodes, job states, environment
injection (``PMIX_SECURITY_MODE``), and completion in virtual time.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SchedulerError
from repro.faults.injector import (
    FaultInjector,
    WorkpackageInjection,
    activate_injection,
)
from repro.hardware.node import NodeSpec
from repro.power.sensors import DeviceRegistry
from repro.simcluster.clock import VirtualClock


class JobState(str, enum.Enum):
    """Slurm-like job lifecycle states."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"


@dataclass
class JobSpec:
    """A batch job request (the sbatch/srun options CARAML sets).

    ``run`` is the job body: a callable receiving a :class:`JobContext`
    and returning the job's result payload; it raises to fail the job.
    """

    name: str
    partition: str
    nodes: int = 1
    ntasks: int = 1
    cpus_per_task: int = 1
    gpus_per_task: int = 0
    time_limit_s: float = 3600.0
    env: dict[str, str] = field(default_factory=dict)
    run: Callable[["JobContext"], object] | None = None
    #: Job ids that must COMPLETE first (sbatch --dependency=afterok).
    depends_on: tuple[int, ...] = ()


@dataclass
class JobContext:
    """What a running job sees: its allocation and environment."""

    job_id: int
    spec: JobSpec
    node: NodeSpec
    node_indices: list[int]
    registry: DeviceRegistry
    clock: VirtualClock
    env: dict[str, str]


@dataclass
class JobRecord:
    """Accounting record of one job (squeue/sacct view).

    ``requeues`` counts injected preemptions (Slurm's requeue count);
    ``faults`` carries the provenance of faults injected into the job.
    """

    job_id: int
    spec: JobSpec
    state: JobState = JobState.PENDING
    submit_time_s: float = 0.0
    start_time_s: float | None = None
    end_time_s: float | None = None
    result: object = None
    error: str | None = None
    requeues: int = 0
    faults: list = field(default_factory=list)

    @property
    def elapsed_s(self) -> float | None:
        """Runtime of a finished job."""
        if self.start_time_s is None or self.end_time_s is None:
            return None
        return self.end_time_s - self.start_time_s


def allocate_node(
    node: NodeSpec,
    clock: VirtualClock | None = None,
    *,
    seed: int = 0,
) -> DeviceRegistry:
    """Build the device registry of one allocated node."""
    clk = clock if clock is not None else VirtualClock()
    return DeviceRegistry.for_node(node, clock=clk, seed=seed)


class SlurmSimulator:
    """FIFO scheduler over partitions of Table I nodes.

    Jobs run *immediately and synchronously in virtual time* when
    scheduled: the job body advances the shared virtual clock itself
    (through the engines), so the scheduler only needs to order jobs
    and track node occupancy between scheduling rounds.
    """

    def __init__(self, injector: FaultInjector | None = None) -> None:
        self.clock = VirtualClock()
        self.injector = injector
        self._fault_scopes: dict[int, WorkpackageInjection] = {}
        self._partitions: dict[str, tuple[NodeSpec, int]] = {}
        self._free_nodes: dict[str, list[int]] = {}
        self._jobs: dict[int, JobRecord] = {}
        self._queue: list[int] = []
        self._ids = itertools.count(1)

    def _fault_scope(self, record: JobRecord) -> WorkpackageInjection | None:
        """The job's injection scope (firing state persists across
        scheduling rounds, so a preempted job is not preempted forever)."""
        if self.injector is None:
            return None
        scope = self._fault_scopes.get(record.job_id)
        if scope is None:
            scope = self.injector.scope_for(
                record.spec.name,
                record.job_id,
                {"job": record.spec.name, "partition": record.spec.partition},
            )
            self._fault_scopes[record.job_id] = scope
        return scope

    # -- configuration ---------------------------------------------------

    def add_partition(self, name: str, node: NodeSpec, node_count: int) -> None:
        """Register a partition backed by ``node_count`` identical nodes."""
        if node_count < 1:
            raise SchedulerError("partition needs at least one node")
        if name in self._partitions:
            raise SchedulerError(f"partition {name!r} already exists")
        self._partitions[name] = (node, node_count)
        self._free_nodes[name] = list(range(node_count))

    # -- submission and scheduling ----------------------------------------

    def submit(self, spec: JobSpec) -> int:
        """Queue a job; returns its job id.  Validates the request."""
        node, count = self._partitions.get(spec.partition, (None, 0))
        if node is None:
            raise SchedulerError(f"unknown partition {spec.partition!r}")
        if spec.nodes > count:
            raise SchedulerError(
                f"job {spec.name!r} wants {spec.nodes} nodes, partition "
                f"{spec.partition!r} has {count}"
            )
        if spec.gpus_per_task * spec.ntasks > node.logical_devices_per_node:
            raise SchedulerError(
                f"job {spec.name!r} wants "
                f"{spec.gpus_per_task * spec.ntasks} devices/node, node has "
                f"{node.logical_devices_per_node}"
            )
        if spec.cpus_per_task * spec.ntasks > node.cpu_cores_per_node * node.cpu.smt:
            raise SchedulerError(
                f"job {spec.name!r} oversubscribes CPUs on {node.name}"
            )
        for dep in spec.depends_on:
            if dep not in self._jobs:
                raise SchedulerError(
                    f"job {spec.name!r} depends on unknown job {dep}"
                )
        job_id = next(self._ids)
        record = JobRecord(job_id, spec, submit_time_s=self.clock.now())
        self._jobs[job_id] = record
        self._queue.append(job_id)
        return job_id

    def get(self, job_id: int) -> JobRecord:
        """Look up a job record."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise SchedulerError(f"unknown job id {job_id}") from None

    def queue(self) -> list[JobRecord]:
        """Pending jobs in submission order (squeue view)."""
        return [self._jobs[j] for j in self._queue]

    def _dependency_state(self, spec: JobSpec) -> str:
        """'ready', 'waiting', or 'never' (afterok semantics)."""
        for dep in spec.depends_on:
            dep_record = self._jobs[dep]
            if dep_record.state in (JobState.FAILED, JobState.CANCELLED):
                return "never"
            if dep_record.state is not JobState.COMPLETED:
                return "waiting"
        return "ready"

    def run_next(self) -> JobRecord | None:
        """Schedule and run the first runnable pending job.

        Returns the finished record, or None if nothing is runnable.
        FIFO with dependency-aware skipping: a job whose ``afterok``
        dependencies are still pending is passed over (backfill); one
        whose dependency failed is cancelled (Slurm's
        DependencyNeverSatisfied).

        With a fault injector installed, an armed ``preemption`` fault
        requeues the job at scheduling time (it runs in a later round,
        ``requeues`` incremented) and an armed ``node_crash`` fault
        fails it with ``NodeFail`` the way Slurm reports a node lost
        under a running job.
        """
        while True:
            for job_id in list(self._queue):
                record = self._jobs[job_id]
                state = self._dependency_state(record.spec)
                if state == "never":
                    self._queue.remove(job_id)
                    record.state = JobState.CANCELLED
                    record.error = "DependencyNeverSatisfied"
                    record.end_time_s = self.clock.now()
                    return record
                if state == "ready":
                    self._queue.remove(job_id)
                    break
            else:
                return None
            scope = self._fault_scope(record)
            if scope is None:
                break
            event = scope.job_event(self.clock.now())
            if event is None:
                break
            if event == "crash":
                record.state = JobState.FAILED
                record.error = "NodeFail: injected node crash"
                record.end_time_s = self.clock.now()
                record.faults = scope.provenance()
                return record
            # Preempted: back of the queue, try the next runnable job.
            record.requeues += 1
            self._queue.append(record.job_id)
        spec = record.spec
        job_id = record.job_id
        node, _ = self._partitions[spec.partition]
        free = self._free_nodes[spec.partition]
        if len(free) < spec.nodes:  # pragma: no cover - sync model keeps free
            raise SchedulerError("no free nodes (scheduler invariant broken)")
        allocated = [free.pop(0) for _ in range(spec.nodes)]

        record.state = JobState.RUNNING
        record.start_time_s = self.clock.now()
        registry = allocate_node(node, self.clock, seed=job_id)
        env = dict(spec.env)
        # The PMIx compatibility fix the paper applies for containers.
        env.setdefault("PMIX_SECURITY_MODE", "native")
        ctx = JobContext(
            job_id=job_id,
            spec=spec,
            node=node,
            node_indices=allocated,
            registry=registry,
            clock=self.clock,
            env=env,
        )
        start = self.clock.now()
        try:
            if spec.run is not None:
                if scope is not None:
                    # Engine/sensor faults armed for this job fire while
                    # its body runs.
                    with activate_injection(scope):
                        record.result = spec.run(ctx)
                else:
                    record.result = spec.run(ctx)
            record.state = JobState.COMPLETED
        except Exception as exc:  # job bodies may raise anything
            record.state = JobState.FAILED
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            record.end_time_s = self.clock.now()
            self._free_nodes[spec.partition].extend(allocated)
            if scope is not None:
                record.faults = scope.provenance()
        # Enforce the time limit retroactively (virtual time).
        if (
            record.state is JobState.COMPLETED
            and record.end_time_s - start > spec.time_limit_s
        ):
            record.state = JobState.FAILED
            record.error = "TIMEOUT: exceeded time limit"
        return record

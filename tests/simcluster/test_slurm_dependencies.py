"""Tests for Slurm job dependencies (sbatch --dependency=afterok)."""

import pytest

from repro.errors import SchedulerError
from repro.hardware.systems import get_system
from repro.simcluster.slurm import JobSpec, JobState, SlurmSimulator


@pytest.fixture
def sim():
    s = SlurmSimulator()
    s.add_partition("gpu", get_system("A100"), 2)
    return s


class TestAfterOk:
    def test_dependent_runs_after_parent(self, sim, drain):
        order = []
        parent = sim.submit(
            JobSpec(name="prep", partition="gpu", run=lambda ctx: order.append("prep"))
        )
        sim.submit(
            JobSpec(
                name="train", partition="gpu", depends_on=(parent,),
                run=lambda ctx: order.append("train"),
            )
        )
        drain(sim)
        assert order == ["prep", "train"]

    def test_out_of_order_queue_is_reordered(self, sim, drain):
        # Dependent submitted; then its parent runs only later because
        # of FIFO skipping.
        order = []
        a = sim.submit(
            JobSpec(name="a", partition="gpu", run=lambda ctx: order.append("a"))
        )
        sim.submit(
            JobSpec(
                name="c", partition="gpu", depends_on=(a,),
                run=lambda ctx: order.append("c"),
            )
        )
        sim.submit(
            JobSpec(name="b", partition="gpu", run=lambda ctx: order.append("b"))
        )
        records = drain(sim)
        assert order[0] == "a"
        assert len(records) == 3

    def test_failed_parent_cancels_dependent(self, sim, drain):
        def boom(ctx):
            raise RuntimeError("broken")

        parent = sim.submit(JobSpec(name="prep", partition="gpu", run=boom))
        child = sim.submit(
            JobSpec(name="train", partition="gpu", depends_on=(parent,))
        )
        records = drain(sim)
        assert sim.get(parent).state is JobState.FAILED
        assert sim.get(child).state is JobState.CANCELLED
        assert sim.get(child).error == "DependencyNeverSatisfied"
        assert len(records) == 2

    def test_chain_of_dependencies(self, sim, drain):
        order = []
        prev = None
        for name in ("s1", "s2", "s3"):
            prev = sim.submit(
                JobSpec(
                    name=name, partition="gpu",
                    depends_on=(prev,) if prev else (),
                    run=lambda ctx, n=name: order.append(n),
                )
            )
        drain(sim)
        assert order == ["s1", "s2", "s3"]

    def test_unknown_dependency_rejected(self, sim):
        with pytest.raises(SchedulerError, match="unknown job"):
            sim.submit(JobSpec(name="x", partition="gpu", depends_on=(999,)))

    def test_cancelled_parent_cancels_dependent(self, sim, drain):
        def boom(ctx):
            raise RuntimeError("broken")

        # A failed grandparent leaves the parent CANCELLED, which in
        # turn can never satisfy the child's afterok.
        grandparent = sim.submit(JobSpec(name="fetch", partition="gpu", run=boom))
        parent = sim.submit(
            JobSpec(name="prep", partition="gpu", depends_on=(grandparent,))
        )
        child = sim.submit(
            JobSpec(name="train", partition="gpu", depends_on=(parent,))
        )
        drain(sim)
        assert sim.get(parent).state is JobState.CANCELLED
        assert sim.get(child).state is JobState.CANCELLED

    def test_waiting_jobs_do_not_deadlock_drain(self, sim, drain):
        # A pending job waiting on a pending parent resolves as drain
        # makes progress.
        parent = sim.submit(JobSpec(name="p", partition="gpu"))
        child = sim.submit(JobSpec(name="c", partition="gpu", depends_on=(parent,)))
        records = drain(sim)
        assert {r.spec.name for r in records} == {"p", "c"}
        assert all(r.state is JobState.COMPLETED for r in records)

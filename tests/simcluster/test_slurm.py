"""Tests for the simulated Slurm scheduler."""

import pytest

from repro.errors import SchedulerError
from repro.hardware.systems import get_system
from repro.simcluster.clock import VirtualClock
from repro.simcluster.slurm import JobSpec, JobState, SlurmSimulator, allocate_node


@pytest.fixture
def sim():
    s = SlurmSimulator()
    s.add_partition("dc-gpu", get_system("A100"), 4)
    return s


class TestPartitions:
    def test_duplicate_partition(self, sim):
        with pytest.raises(SchedulerError):
            sim.add_partition("dc-gpu", get_system("A100"), 1)

    def test_empty_partition_rejected(self, sim):
        with pytest.raises(SchedulerError):
            sim.add_partition("empty", get_system("A100"), 0)


class TestSubmission:
    def test_submit_and_run(self, sim):
        jid = sim.submit(
            JobSpec(
                name="train", partition="dc-gpu", ntasks=4, gpus_per_task=1,
                run=lambda ctx: ctx.clock.advance(10.0) and None or "done",
            )
        )
        record = sim.run_next()
        assert record.job_id == jid
        assert record.state is JobState.COMPLETED
        assert record.elapsed_s == pytest.approx(10.0)
        assert record.result == "done"

    def test_rejects_oversubscribed_gpus(self, sim):
        with pytest.raises(SchedulerError, match="devices"):
            sim.submit(JobSpec(name="big", partition="dc-gpu", ntasks=8, gpus_per_task=1))

    def test_rejects_oversubscribed_cpus(self, sim):
        with pytest.raises(SchedulerError, match="CPU"):
            sim.submit(
                JobSpec(name="big", partition="dc-gpu", ntasks=4, cpus_per_task=100)
            )

    def test_rejects_too_many_nodes(self, sim):
        with pytest.raises(SchedulerError, match="nodes"):
            sim.submit(JobSpec(name="wide", partition="dc-gpu", nodes=5))

    def test_unknown_partition(self, sim):
        with pytest.raises(SchedulerError):
            sim.submit(JobSpec(name="x", partition="nope"))


class TestLifecycle:
    def test_fifo_order(self, sim, drain):
        order = []
        for name in ("first", "second", "third"):
            sim.submit(
                JobSpec(
                    name=name, partition="dc-gpu",
                    run=lambda ctx, n=name: order.append(n),
                )
            )
        drain(sim)
        assert order == ["first", "second", "third"]

    def test_failed_job_records_error(self, sim):
        def boom(ctx):
            raise RuntimeError("exploded")

        sim.submit(JobSpec(name="bad", partition="dc-gpu", run=boom))
        record = sim.run_next()
        assert record.state is JobState.FAILED
        assert "exploded" in record.error

    def test_failure_frees_nodes(self, sim, drain):
        def boom(ctx):
            raise RuntimeError("x")

        for _ in range(6):  # more jobs than nodes
            sim.submit(JobSpec(name="bad", partition="dc-gpu", run=boom))
        records = drain(sim)
        assert len(records) == 6

    def test_timeout_marks_failed(self, sim):
        sim.submit(
            JobSpec(
                name="slow", partition="dc-gpu", time_limit_s=5.0,
                run=lambda ctx: ctx.clock.advance(10.0),
            )
        )
        record = sim.run_next()
        assert record.state is JobState.FAILED
        assert "TIMEOUT" in record.error

    def test_queue_view(self, sim):
        sim.submit(JobSpec(name="a", partition="dc-gpu"))
        sim.submit(JobSpec(name="b", partition="dc-gpu"))
        assert [r.spec.name for r in sim.queue()] == ["a", "b"]


class TestJobContext:
    def test_registry_matches_node(self, sim):
        seen = {}

        def body(ctx):
            seen["devices"] = len(ctx.registry)

        sim.submit(
            JobSpec(name="x", partition="dc-gpu", ntasks=4, gpus_per_task=1, run=body)
        )
        sim.run_next()
        assert seen["devices"] == 4

    def test_pmix_security_mode_injected(self, sim):
        # The §V-B container compatibility fix.
        seen = {}
        sim.submit(
            JobSpec(
                name="x", partition="dc-gpu",
                run=lambda ctx: seen.update(ctx.env),
            )
        )
        sim.run_next()
        assert seen["PMIX_SECURITY_MODE"] == "native"

    def test_allocate_node_helper(self):
        clock = VirtualClock()
        reg = allocate_node(get_system("MI250"), clock)
        assert len(reg) == 8

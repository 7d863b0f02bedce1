"""The injector and every seam it is wired through."""

from __future__ import annotations

import math
import pickle

import pytest

from repro.errors import MeasurementError, OutOfMemoryError, TransientError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedOutOfMemoryError,
    activate_injection,
    get_injector,
)
from repro.faults.injector import NULL_INJECTION
from repro.hardware.systems import get_system
from repro.jpwr.ctxmgr import get_power
from repro.jpwr.methods.pynvml import PynvmlMethod
from repro.power.sensors import DeviceRegistry
from repro.simcluster.clock import VirtualClock


def scope_of(*faults, seed=0, step="llm", index=0, params=None):
    plan = FaultPlan(name="t", seed=seed, faults=tuple(faults))
    return FaultInjector(plan).scope_for(step, index, params or {"system": "A100"})


class TestActivation:
    def test_default_is_null_and_free(self):
        injector = get_injector()
        assert injector is NULL_INJECTION
        assert not injector.enabled
        injector.check_workpackage_start()
        injector.check_step(0.0, 0)
        assert injector.straggler_factor(0.0, 0) == 1.0
        assert injector.memory_pressure_bytes() == 0
        assert injector.sensor_fault(0, 0.0) is None
        assert injector.job_event(0.0) is None
        assert injector.provenance() == []

    def test_activation_restores_previous(self):
        scope = scope_of(FaultSpec(kind="transient"))
        with activate_injection(scope):
            assert get_injector() is scope
        assert get_injector() is NULL_INJECTION

    def test_activating_none_is_null(self):
        with activate_injection(None):
            assert get_injector() is NULL_INJECTION


class TestWorkpackageSeam:
    def test_transient_aborts_then_exhausts(self):
        scope = scope_of(FaultSpec(kind="transient", max_fires=2))
        for _ in range(2):
            with pytest.raises(TransientError):
                scope.check_workpackage_start()
        scope.check_workpackage_start()  # exhausted: third attempt runs
        assert scope.provenance()[0]["count"] == 2

    def test_node_crash_is_transient_here(self):
        scope = scope_of(FaultSpec(kind="node_crash"))
        with pytest.raises(TransientError, match="node crash"):
            scope.check_workpackage_start()

    def test_non_matching_spec_never_arms(self):
        scope = scope_of(FaultSpec(kind="transient", where={"system": "MI250"}))
        scope.check_workpackage_start()
        assert scope.provenance() == []


class TestTrainingSeam:
    def test_oom_at_step_is_both_oom_and_transient(self):
        scope = scope_of(FaultSpec(kind="oom", at_step=2))
        scope.check_step(0.0, 0)
        scope.check_step(0.0, 1)
        with pytest.raises(OutOfMemoryError) as exc:
            scope.check_step(0.0, 2)
        assert isinstance(exc.value, TransientError)
        assert isinstance(exc.value, InjectedOutOfMemoryError)

    def test_oom_at_time_relative_to_first_consultation(self):
        scope = scope_of(FaultSpec(kind="oom", at_time_s=5.0))
        scope.check_step(100.0, 0)  # t0 = 100
        scope.check_step(104.9, 1)
        with pytest.raises(OutOfMemoryError):
            scope.check_step(105.0, 2)

    def test_straggler_window_stretches_then_releases(self):
        scope = scope_of(
            FaultSpec(kind="straggler", magnitude=2.0, at_time_s=1.0, duration_s=2.0)
        )
        assert scope.straggler_factor(0.0, 0) == 1.0  # t0 = 0, before window
        assert scope.straggler_factor(1.5, 1) == 2.0
        assert scope.straggler_factor(3.5, 2) == 1.0  # window closed
        record = scope.provenance()[0]
        assert record["kind"] == "straggler"

    def test_stragglers_compound(self):
        scope = scope_of(
            FaultSpec(kind="straggler", magnitude=2.0),
            FaultSpec(kind="straggler", magnitude=1.5),
        )
        assert scope.straggler_factor(0.0, 0) == pytest.approx(3.0)

    def test_memory_pressure_shrinks_budget(self):
        from repro.engine.oom import check_llm_memory
        from repro.models.parallelism import ParallelLayout
        from repro.models.transformer import get_gpt_preset

        node = get_system("A100")
        model = get_gpt_preset("800M")
        layout = ParallelLayout(tp=1, pp=1, dp=4)
        clean = check_llm_memory(node, model, layout, 4)
        scope = scope_of(FaultSpec(kind="memory_pressure", magnitude=8e9))
        with activate_injection(scope):
            pressured = check_llm_memory(node, model, layout, 4)
        assert pressured.used_bytes == pytest.approx(clean.used_bytes + 8e9)
        assert scope.provenance()[0]["kind"] == "memory_pressure"


class TestSensorSeam:
    def _registry(self):
        clock = VirtualClock()
        return clock, DeviceRegistry.for_node(get_system("A100"), clock=clock)

    def test_dropout_raises_and_jpwr_drops(self):
        clock, registry = self._registry()
        scope = scope_of(
            FaultSpec(kind="sensor_dropout", at_time_s=1.0, duration_s=2.0)
        )
        with activate_injection(scope):
            with get_power(
                [PynvmlMethod(registry)], 100, clock=clock, manual=True
            ) as measured:
                for _ in range(6):
                    clock.advance(1.0)
                    measured.sample()
        assert measured.dropped_samples > 0
        energy_df, _ = measured.energy()
        assert energy_df.row(0)["gpu0"] > 0  # run still yields energy
        assert scope.provenance()[0]["kind"] == "sensor_dropout"

    def test_dropout_targets_one_device(self):
        clock, registry = self._registry()
        scope = scope_of(FaultSpec(kind="sensor_dropout", device=2))
        with activate_injection(scope):
            registry.get(0).read()  # unaffected
            with pytest.raises(MeasurementError, match="injected sensor dropout"):
                registry.get(2).read()

    def test_spike_offsets_power(self):
        clock, registry = self._registry()
        device = registry.get(0)
        clean = device.read().power_w
        scope = scope_of(FaultSpec(kind="sensor_spike", magnitude=250.0))
        with activate_injection(scope):
            spiked = device.read().power_w
        assert spiked == pytest.approx(clean + 250.0)

    def test_nan_reads_are_discarded_as_anomalous(self):
        clock, registry = self._registry()
        scope = scope_of(
            FaultSpec(kind="sensor_nan", at_time_s=1.0, duration_s=2.0)
        )
        with activate_injection(scope):
            assert math.isnan(registry.get(0).read().power_w) is False
            with get_power(
                [PynvmlMethod(registry)], 100, clock=clock, manual=True
            ) as measured:
                for _ in range(6):
                    clock.advance(1.0)
                    measured.sample()
        assert measured.anomalous_samples > 0
        for row in measured.df.rows():  # no NaN survived into the frame
            assert all(math.isfinite(v) for v in row.values())


def _alternating_phases(runner, clock):
    """4.2 s of simulated time: 21 busy/tail phase pairs."""
    for _ in range(21):
        runner.run_phase(0.15, 0.9)
        runner.run_phase(0.05, 0.25)


class TestDropoutAtScopeEdges:
    """A dropout covering a scope's first or last sample degrades the
    run like a mid-run window: samples are dropped and counted (one
    firing per dropped sample), the run still measures energy."""

    def _measure(self, tag, spec):
        from repro.engine.trainer import measure_run

        scope = scope_of(spec)
        with activate_injection(scope):
            _, elapsed, energy_wh, _ = measure_run(
                get_system(tag), 1, _alternating_phases
            )
        assert elapsed == pytest.approx(4.2)
        assert energy_wh > 0
        return scope.provenance()[0]["count"]

    @pytest.mark.parametrize("tag", ["A100", "MI250", "GC200"])
    @pytest.mark.parametrize("device", [None, 1])
    def test_dropout_at_scope_start(self, tag, device):
        spec = FaultSpec(kind="sensor_dropout", duration_s=1.0, device=device)
        assert self._measure(tag, spec) == 20

    @pytest.mark.parametrize("tag", ["A100", "GH200", "MI250", "GC200"])
    def test_dropout_open_at_scope_end(self, tag):
        spec = FaultSpec(kind="sensor_dropout", at_time_s=2.0)
        assert self._measure(tag, spec) == 44


class TestSlurmSeam:
    def _sim(self, *faults, seed=0):
        from repro.simcluster.slurm import SlurmSimulator

        plan = FaultPlan(name="t", seed=seed, faults=tuple(faults))
        sim = SlurmSimulator(injector=FaultInjector(plan))
        sim.add_partition("batch", get_system("A100"), 2)
        return sim

    def _spec(self, name="job"):
        from repro.simcluster.slurm import JobSpec

        return JobSpec(name=name, partition="batch", run=lambda ctx: "ok")

    def test_node_crash_fails_job_with_nodefail(self, drain):
        from repro.simcluster.slurm import JobState

        sim = self._sim(FaultSpec(kind="node_crash", where={"job": "victim"}))
        sim.submit(self._spec("victim"))
        sim.submit(self._spec("bystander"))
        records = drain(sim)
        by_name = {r.spec.name: r for r in records}
        assert by_name["victim"].state is JobState.FAILED
        assert "NodeFail" in by_name["victim"].error
        assert by_name["victim"].faults[0]["kind"] == "node_crash"
        assert by_name["bystander"].state is JobState.COMPLETED
        assert by_name["bystander"].faults == []

    def test_preemption_requeues_then_completes(self, drain):
        from repro.simcluster.slurm import JobState

        sim = self._sim(
            FaultSpec(kind="preemption", where={"job": "victim"}, max_fires=2)
        )
        sim.submit(self._spec("victim"))
        sim.submit(self._spec("other"))
        records = drain(sim)
        # The preempted job goes to the back of the queue, so the other
        # job finishes first; the victim completes after its requeues.
        assert [r.spec.name for r in records] == ["other", "victim"]
        victim = records[1]
        assert victim.state is JobState.COMPLETED
        assert victim.requeues == 2
        assert victim.faults[0]["count"] == 2

    def test_engine_faults_apply_inside_job_body(self, drain):
        seen = {}

        def body(ctx):
            seen["pressure"] = get_injector().memory_pressure_bytes()
            return "ok"

        from repro.simcluster.slurm import JobSpec, JobState

        sim = self._sim(FaultSpec(kind="memory_pressure", magnitude=1e9))
        sim.submit(JobSpec(name="job", partition="batch", run=body))
        (record,) = drain(sim)
        assert record.state is JobState.COMPLETED
        assert seen["pressure"] == int(1e9)
        assert record.faults[0]["kind"] == "memory_pressure"

    def test_uninjected_simulator_has_no_scopes(self, drain):
        from repro.simcluster.slurm import JobState, SlurmSimulator

        sim = SlurmSimulator()
        sim.add_partition("batch", get_system("A100"), 1)
        sim.submit(self._spec())
        (record,) = drain(sim)
        assert record.state is JobState.COMPLETED
        assert record.faults == []


class TestDeterminism:
    def test_probability_draws_are_parameter_stable(self):
        # The arming draw is seeded by (plan seed, spec position, step,
        # parameters), not execution order: re-deriving scopes for the
        # same workpackages gives identical decisions.
        spec = FaultSpec(kind="transient", probability=0.5)
        armings = [
            [
                scope_of(spec, seed=11, params={"i": str(i)})._armed[0].armed
                for i in range(20)
            ]
            for _ in range(2)
        ]
        assert armings[0] == armings[1]
        assert 0 < sum(armings[0]) < 20  # the coin actually flips

    def test_different_seed_changes_draws(self):
        spec = FaultSpec(kind="transient", probability=0.5)
        a = [scope_of(spec, seed=1, params={"i": str(i)})._armed[0].armed for i in range(40)]
        b = [scope_of(spec, seed=2, params={"i": str(i)})._armed[0].armed for i in range(40)]
        assert a != b

    def test_plan_pickles_for_pool_workers(self):
        plan = FaultPlan(
            name="p", seed=3, faults=(FaultSpec(kind="oom", at_step=1),)
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

"""Row reuse in the phase runner against full reads on every sample.

While every read is a pure function of the phase utilisation, the
phase runner reads the sensors once per utilisation level and appends
that row again at later phase edges.  The oracle is the same run under
an active empty fault plan: an active injection scope turns reuse off,
so every sample reads every sensor, and nothing fires.

Exact: sample frames, result rows, per-request energies and the energy
counters of the devices the runner drives.  Approximate (1e-12
relative): the counters of devices the scope reads but never drives,
which accrue over fewer, longer intervals when reads are skipped; no
result reads them.
"""

from __future__ import annotations

import pytest

from repro.core.config import LLMBenchmarkConfig, ResNetBenchmarkConfig
from repro.core.llm_training import run_llm_benchmark
from repro.core.resnet50 import run_resnet_benchmark
from repro.engine import trainer
from repro.engine.inference import InferenceEngine
from repro.engine.perf import StepBreakdown
from repro.engine.trainer import PhaseRunner, measure_run
from repro.faults import FaultInjector, FaultPlan, activate_injection
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.jpwr.ctxmgr import get_power
from repro.jpwr.methods.pynvml import PynvmlMethod
from repro.models.transformer import get_gpt_preset
from repro.power.sensors import DeviceRegistry, SimulatedDevice
from repro.serve import PoissonArrivals, ServingSimulator
from repro.simcluster.clock import VirtualClock

STEP = StepBreakdown(
    compute_s=0.3, comm_exposed_s=0.05, host_s=0.0,
    overhead_s=0.05, bubble_s=0.0, utilisation=0.8,
)


@pytest.fixture
def runners(monkeypatch):
    """Every PhaseRunner measure_run builds, in construction order."""
    made: list[PhaseRunner] = []

    class Recording(PhaseRunner):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(trainer, "PhaseRunner", Recording)
    return made


def full_reads():
    """An active, empty fault plan: nothing fires, every sample reads."""
    plan = FaultPlan(name="full-reads", seed=0, faults=())
    return activate_injection(FaultInjector(plan).scope_for("oracle", 0, {}))


def snapshot(runner: PhaseRunner):
    """A run's frame plus its driven and undriven energy counters."""
    df = runner.scope.df
    frame = {column: list(df[column]) for column in df.columns}
    sensors = {dev.index: dev for m in runner.scope.methods for dev in m.devices()}
    driven = {dev.index for dev in runner.devices}
    counters = {i: dev.read_energy_j() for i, dev in sensors.items()}
    return (
        frame,
        {i: e for i, e in counters.items() if i in driven},
        {i: e for i, e in counters.items() if i not in driven},
    )


def run_twice(runners, run):
    """``run()`` as shipped and under full reads, with their snapshots."""
    shipped = run()
    (reused,) = runners
    runners.clear()
    with full_reads():
        oracle = run()
    (read,) = runners
    return shipped, oracle, snapshot(reused), snapshot(read)


def assert_equivalent(reused, read) -> None:
    frame, driven, undriven = reused
    frame_read, driven_read, undriven_read = read
    assert frame == frame_read
    assert driven == driven_read
    assert undriven.keys() == undriven_read.keys()
    for index, energy_j in undriven.items():
        assert energy_j == pytest.approx(undriven_read[index], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("tag", SYSTEM_TAGS)
def test_llm_training(runners, tag):
    config = (
        LLMBenchmarkConfig(system=tag, model_size="117M", global_batch_size=64)
        if get_system(tag).is_ipu_pod
        else LLMBenchmarkConfig(system=tag, exit_duration_s=30.0)
    )
    shipped, oracle, reused, read = run_twice(
        runners, lambda: run_llm_benchmark(config)
    )
    assert shipped.row() == oracle.row()
    assert_equivalent(reused, read)


@pytest.mark.parametrize("tag", SYSTEM_TAGS)
def test_resnet_training(runners, tag):
    config = ResNetBenchmarkConfig(system=tag, iterations=20)
    shipped, oracle, reused, read = run_twice(
        runners, lambda: run_resnet_benchmark(config)
    )
    assert shipped.row() == oracle.row()
    assert_equivalent(reused, read)


@pytest.mark.serve
@pytest.mark.parametrize("tag", ["A100", "GH200", "MI250"])
def test_single_engine_serving(runners, tag):
    engine = InferenceEngine(get_system(tag), get_gpt_preset("800M"))
    arrivals = PoissonArrivals(
        rate_per_s=4.0, requests=24, prompt_tokens=256, generate_tokens=32,
        length_spread=0.25, seed=3,
    )
    shipped, oracle, reused, read = run_twice(
        runners, lambda: ServingSimulator(engine, batch_cap=4).run(arrivals)
    )
    assert shipped.train.row() == oracle.train.row()
    assert [r.energy_wh for r in shipped.records] == [
        r.energy_wh for r in oracle.records
    ]
    assert_equivalent(reused, read)


class TestReadCounts:
    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        read = SimulatedDevice.read

        def counted(self):
            calls.append(self.index)
            return read(self)

        monkeypatch.setattr(SimulatedDevice, "read", counted)
        return calls

    def _steps(self, reads, steps):
        reads.clear()

        def body(runner, clock):
            for _ in range(steps):
                runner.run_step(STEP)

        measure_run(get_system("A100"), 4, body)
        return len(reads)

    def test_reads_do_not_grow_with_steps(self, reads):
        # 4 GPUs x (scope entry + busy and tail utilisations + exit).
        assert self._steps(reads, 10) == 16
        assert self._steps(reads, 1000) == 16

    def test_noisy_sensors_read_every_sample(self, reads):
        clock = VirtualClock()
        registry = DeviceRegistry.for_node(
            get_system("A100"), clock=clock, noise_fraction=0.02
        )
        with get_power([PynvmlMethod(registry)], 100, clock=clock, manual=True) as scope:
            runner = PhaseRunner(clock, scope, [registry.get(0)])
            for _ in range(5):
                runner.run_step(STEP)
        assert len(scope.df) == 2 + 5 * 4
        assert len(reads) == 4 * len(scope.df)
        assert len(set(scope.df["gpu0"][1:-1])) == 5 * 4  # every row fresh

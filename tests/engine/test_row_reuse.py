"""Row reuse in the phase runner against full reads on every sample.

While every read is a pure function of the phase utilisation, the
phase runner reads the sensors once per utilisation level and appends
that row again at later phase edges.  The oracle is the same run under
an active empty fault plan: an active injection scope turns reuse off,
so every sample reads every sensor, and nothing fires.  A run of
phases (``PhaseRunner.run_phases``) is compared with the same phases
run one at a time, and a fused run of optimizer steps
(``PhaseRunner.run_steps``) with the same steps run one at a time.
One-at-a-time calls whose utilisations are all kept take the same bulk
path as the run, so runs on kept rows are also compared with full
reads.  A single-engine serving run that nothing observes between steps
is scheduled whole and replayed once (``PhaseRunner.replay``); it is
compared with full reads and with the same run made stepwise by an
enabled tracer.

Exact: sample frames, result rows, per-request energies and the energy
counters of the devices the runner drives.  Approximate (1e-12
relative): the counters of devices the scope reads but never drives,
which accrue over fewer, longer intervals when reads are skipped; no
result reads them.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import pytest

from repro.core.config import LLMBenchmarkConfig, ResNetBenchmarkConfig
from repro.core.llm_training import run_llm_benchmark
from repro.core.resnet50 import run_resnet_benchmark
from repro.engine import trainer
from repro.engine.inference import InferenceEngine
from repro.engine.perf import StepBreakdown
from repro.engine.trainer import PhaseRunner, jpwr_methods_for_node, measure_run
from repro.faults import FaultInjector, FaultPlan, activate_injection
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.jpwr.ctxmgr import MeasuredScope, get_power
from repro.jpwr.methods.pynvml import PynvmlMethod
from repro.models.transformer import get_gpt_preset
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer, activate
from repro.power.sensors import DeviceRegistry, SimulatedDevice
from repro.serve import (
    FixedArrivals,
    PoissonArrivals,
    ServingSimulator,
    TraceArrivals,
)
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


GPU_TAGS = [tag for tag in SYSTEM_TAGS if not get_system(tag).is_ipu_pod]

SERVE_POISSON = PoissonArrivals(
    rate_per_s=4.0, requests=24, prompt_tokens=256, generate_tokens=32,
    length_spread=0.25, seed=3,
)

#: Streams in which a utilisation first occurs right after phases
#: appended in bulk.
SERVE_STREAMS = {
    # Two prefills, then decode: the second prefill is appended before
    # the decode's first read.  Idle first occurs after the decode runs.
    "no-leading-idle-gap-later": TraceArrivals(
        entries=((0.0, 256, 24), (0.0, 128, 16), (6.0, 256, 8))
    ),
    # Idle first, then a prefill first occurring after it.
    "prefill-after-idle": TraceArrivals(
        entries=((1.5, 256, 24), (1.5, 192, 12), (2.0, 64, 8))
    ),
    # Arrivals during decode runs: prefills interrupt them, idle last.
    "arrivals-mid-run": TraceArrivals(
        entries=((0.0, 256, 40), (0.01, 128, 20), (0.3, 64, 30), (9.0, 64, 4))
    ),
}


def serve(tag, arrivals):
    engine = InferenceEngine(get_system(tag), get_gpt_preset("800M"))
    return lambda: ServingSimulator(engine, batch_cap=4).run(arrivals)


def assert_same_serving(shipped, other) -> None:
    assert shipped.train.row() == other.train.row()
    assert [r.energy_wh for r in shipped.records] == [
        r.energy_wh for r in other.records
    ]


@pytest.mark.serve
@pytest.mark.parametrize("tag", GPU_TAGS)
def test_single_engine_serving(runners, tag):
    shipped, oracle, reused, read = run_twice(runners, serve(tag, SERVE_POISSON))
    assert_same_serving(shipped, oracle)
    assert_equivalent(reused, read)


def run_traced(runners, run):
    """``run()`` as shipped and made stepwise by an enabled tracer, with
    their snapshots and end times."""
    shipped = run()
    (recorded,) = runners
    runners.clear()
    with activate(Tracer(clock=VirtualClock())):
        stepped = run()
    (stepwise,) = runners
    return (
        shipped, stepped, snapshot(recorded), snapshot(stepwise),
        recorded.clock.now(), stepwise.clock.now(),
    )


@pytest.mark.serve
class TestRecordedServing:
    """A recorded single-engine run against the same run stepwise."""

    @pytest.mark.parametrize("tag", GPU_TAGS)
    def test_equals_traced_stepwise_run(self, runners, tag):
        shipped, stepped, recorded, stepwise, end, end_stepwise = run_traced(
            runners, serve(tag, SERVE_POISSON)
        )
        assert end == end_stepwise  # bit-equal clocks
        assert recorded[0] == stepwise[0]  # list-equal frames
        assert recorded[1] == stepwise[1]  # driven counters
        assert_same_serving(shipped, stepped)

    @pytest.mark.parametrize("name", sorted(SERVE_STREAMS))
    def test_first_read_after_a_bulk_stretch(self, runners, name):
        run = serve("GH200", SERVE_STREAMS[name])
        shipped, oracle, reused, read = run_twice(runners, run)
        assert_same_serving(shipped, oracle)
        assert_equivalent(reused, read)
        runners.clear()
        shipped, stepped, recorded, stepwise, end, end_stepwise = run_traced(
            runners, run
        )
        assert end == end_stepwise
        assert recorded[:2] == stepwise[:2]
        assert_same_serving(shipped, stepped)


@pytest.fixture
def reads(monkeypatch):
    """Every sensor read, by device index."""
    calls = []
    read = SimulatedDevice.read

    def counted(self):
        calls.append(self.index)
        return read(self)

    monkeypatch.setattr(SimulatedDevice, "read", counted)
    return calls


def drive(reads, tag, run, *, noise_fraction=0.0, injected=False):
    """Drive ``run`` after a first phase; returns the end time, the
    snapshot, the sensor reads in the scope and those of one sample."""
    node = get_system(tag)
    clock = VirtualClock()
    registry = DeviceRegistry.for_node(
        node, clock=clock, noise_fraction=noise_fraction
    )
    active = [registry.get(i) for i in range(min(2, len(registry)))]
    reads.clear()
    with full_reads() if injected else nullcontext():
        with get_power(
            jpwr_methods_for_node(node, registry), 100, clock=clock, manual=True
        ) as scope:
            per_sample = len(reads)  # the scope-entry sample
            runner = PhaseRunner(clock, scope, active)
            runner.run_phase(0.25, 0.8)
            run(runner)
    in_scope = len(reads)
    return clock.now(), snapshot(runner), in_scope, per_sample


class TestRunPhases:
    """``run_phases(cycle, k)`` against one ``run_phase`` call per phase,
    and on kept rows against full reads."""

    DURATION_S, TAIL_S, PHASES = 0.0371, 0.0113, 40

    @pytest.mark.parametrize("tag", SYSTEM_TAGS)
    @pytest.mark.parametrize(
        "case,utilisation,noise_fraction,injected",
        [
            ("reused", 0.8, 0.0, False),
            ("first-read", 0.3, 0.0, False),
            ("noisy", 0.8, 0.02, False),
            ("injected", 0.8, 0.0, True),
        ],
    )
    def test_equals_single_phases(
        self, reads, tag, case, utilisation, noise_fraction, injected
    ):
        d, k = self.DURATION_S, self.PHASES
        bounds = []

        def fused(runner):
            bounds.extend(runner.run_phases(((d, utilisation),), k))

        def stepped(runner):
            for _ in range(k):
                runner.run_phase(d, utilisation)

        kw = dict(noise_fraction=noise_fraction, injected=injected)
        end, snap, fused_reads, per_sample = drive(reads, tag, fused, **kw)
        end_stepped, snap_stepped, stepped_reads, _ = drive(
            reads, tag, stepped, **kw
        )
        assert end == end_stepped  # bit-equal clocks
        assert_equivalent(snap, snap_stepped)
        assert len(bounds) == k + 1 and bounds[-1] == end
        assert fused_reads == stepped_reads
        if case in ("noisy", "injected"):
            rows = len(next(iter(snap[0].values())))
            assert rows == 2 + 2 + 2 * k
            assert fused_reads == per_sample * rows  # every sample read

    @pytest.mark.parametrize("tag", SYSTEM_TAGS)
    @pytest.mark.parametrize(
        "case,cycle,count,kept",
        [
            # Every utilisation has a kept row before the call (0.8 from
            # the first phase, 0.25 from ``kept``).
            ("one-phase", ((DURATION_S, 0.8),), 1, ()),
            ("one-phase-runs", ((DURATION_S, 0.8),), PHASES, ()),
            ("cycle", ((DURATION_S, 0.8), (TAIL_S, 0.25)), PHASES, (0.25,)),
            # 0.3 is first read inside the call.
            ("one-new", ((DURATION_S, 0.8), (TAIL_S, 0.3)), PHASES, ()),
            # Kept 0.8 and 0.25 precede the new 0.3 inside the cycle.
            (
                "kept-before-new",
                ((DURATION_S, 0.8), (TAIL_S, 0.25), (DURATION_S, 0.3), (TAIL_S, 0.25)),
                PHASES,
                (0.25,),
            ),
            # 0.3 and 0.5 first read in a single cycle, after kept 0.8.
            (
                "two-new-once",
                ((DURATION_S, 0.8), (TAIL_S, 0.3), (DURATION_S, 0.8), (TAIL_S, 0.5)),
                1,
                (),
            ),
        ],
    )
    def test_kept_rows_equal_full_reads(
        self, reads, monkeypatch, tag, case, cycle, count, kept
    ):
        bounds, in_call, samples = [], [], []
        sample = MeasuredScope.sample

        def counted(scope, key=None):
            samples.append(key)
            return sample(scope, key)

        monkeypatch.setattr(MeasuredScope, "sample", counted)

        def after_kept(phases):
            def run(runner):
                for utilisation in kept:
                    runner.run_phase(0.013, utilisation)
                before = len(reads), len(samples)
                phases(runner)
                in_call.append(
                    (len(reads) - before[0], len(samples) - before[1])
                )

            return run

        def fused(runner):
            bounds.append(runner.run_phases(cycle, count))

        def stepped(runner):
            for _ in range(count):
                for d, u in cycle:
                    runner.run_phase(d, u)

        end, snap, _, per_sample = drive(reads, tag, after_kept(fused))
        end_read, snap_read, _, _ = drive(
            reads, tag, after_kept(fused), injected=True
        )
        end_stepped, snap_stepped, _, _ = drive(reads, tag, after_kept(stepped))
        assert end == end_read == end_stepped  # bit-equal clocks
        assert_equivalent(snap, snap_read)
        assert_equivalent(snap, snap_stepped)
        (shipped, shipped_samples), (read, _), (stepped_reads, _) = in_call
        new = {"one-new": 1, "kept-before-new": 1, "two-new-once": 2}.get(case, 0)
        assert shipped == stepped_reads == new * per_sample
        assert read > shipped
        # Only the first phase of each new utilisation is sampled.
        assert shipped_samples == 2 * new
        assert bounds[0] == bounds[1]
        assert len(bounds[0]) == count * len(cycle) + 1 and bounds[0][-1] == end

    def test_non_positive_duration_runs_nothing(self):
        clock = VirtualClock(5.0)
        registry = DeviceRegistry.for_node(get_system("A100"), clock=clock)
        with get_power([PynvmlMethod(registry)], 100, clock=clock, manual=True) as scope:
            runner = PhaseRunner(clock, scope, [registry.get(0)])
            assert runner.run_phases(((0.0, 0.8),), 3) == [5.0] * 4
            assert len(scope.df) == 1
        assert clock.now() == 5.0


ZERO_TAIL = StepBreakdown(
    compute_s=0.3, comm_exposed_s=0.0, host_s=0.0,
    overhead_s=0.0, bubble_s=0.0, utilisation=0.8,
)


class TestRunSteps:
    """``run_steps(step, n)`` against ``n`` calls of ``run_step(step)``."""

    STEPS = 40

    @pytest.mark.parametrize("tag", SYSTEM_TAGS)
    @pytest.mark.parametrize(
        "case,step,count,warm,noise_fraction,injected",
        [
            # Both utilisations kept by a step before the run.
            ("reused", STEP, STEPS, True, 0.0, False),
            # Busy 0.3 and tail 0.25 are first read inside the run.
            ("first-read", replace(STEP, utilisation=0.3), STEPS, False, 0.0, False),
            ("noisy", STEP, STEPS, True, 0.02, False),
            ("injected", STEP, STEPS, True, 0.0, True),
            ("zero-tail", ZERO_TAIL, STEPS, False, 0.0, False),
            ("one-step", STEP, 1, False, 0.0, False),
        ],
    )
    def test_equals_single_steps(
        self, reads, tag, case, step, count, warm, noise_fraction, injected
    ):
        steps_run = []

        def fused(runner):
            if warm:
                runner.run_step(step)
            runner.run_steps(step, count)
            steps_run.append(runner.steps_run)

        def stepped(runner):
            for _ in range(count + warm):
                runner.run_step(step)
            steps_run.append(runner.steps_run)

        kw = dict(noise_fraction=noise_fraction, injected=injected)
        end, snap, fused_reads, per_sample = drive(reads, tag, fused, **kw)
        end_stepped, snap_stepped, stepped_reads, _ = drive(
            reads, tag, stepped, **kw
        )
        assert end == end_stepped  # bit-equal clocks
        assert_equivalent(snap, snap_stepped)
        assert steps_run == [count + warm] * 2
        assert fused_reads == stepped_reads
        rows = len(next(iter(snap[0].values())))
        phases = 1 if case == "zero-tail" else 2
        assert rows == 2 + 2 + 2 * phases * (count + warm)
        if case in ("noisy", "injected"):
            assert fused_reads == per_sample * rows  # every sample read

    def test_traced_run_keeps_one_span_per_step(self):
        sink = InMemorySink()
        with activate(Tracer(clock=VirtualClock(), sinks=[sink])):
            result = run_resnet_benchmark(
                ResNetBenchmarkConfig(system="A100", iterations=7)
            )
        spans = [r["name"] for r in sink.records if r["type"] == "span"]
        assert result.iterations == 7
        assert spans.count("engine/step") == 7
        assert spans.count("engine/phase") == 2 * 7


class TestReadCounts:
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

    def test_serving_samples_do_not_grow_with_decode_steps(self, monkeypatch):
        # One request decoding alone: every decode step up to its
        # completion is one run, sampled at its first and last edge.
        calls = []
        sample = MeasuredScope.sample

        def counted(self, key=None):
            calls.append(key)
            return sample(self, key)

        monkeypatch.setattr(MeasuredScope, "sample", counted)
        engine = InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))
        counts = []
        for tokens in (10, 1000):
            calls.clear()
            result = ServingSimulator(engine).run(
                FixedArrivals(requests=1, prompt_tokens=128, generate_tokens=tokens)
            )
            assert result.train.iterations == tokens
            counts.append(len(calls))
        # Scope entry and exit, the prefill's two edges, the run's two.
        assert counts == [6, 6]

"""Common training-loop machinery shared by the engines.

An engine turns a step model into a *run*: it allocates the node's
simulated devices, opens a jpwr measurement scope, iterates steps while
advancing the virtual clock and the devices' utilisation, and returns a
:class:`TrainResult` carrying the benchmark's figures of merit
(throughput, energy per device, efficiency per energy) exactly as the
JUBE result tables report them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from repro.engine.perf import StepBreakdown
from repro.errors import ConfigError
from repro.faults.injector import get_injector
from repro.hardware.accelerator import Vendor
from repro.hardware.node import NodeSpec
from repro.jpwr.ctxmgr import MeasuredScope, get_power
from repro.jpwr.energy import TIME_COLUMN, integrate_energy_wh
from repro.jpwr.methods.base import PowerMethod
from repro.jpwr.methods.gcipuinfo import GcIpuInfoMethod
from repro.jpwr.methods.gh import GraceHopperMethod
from repro.jpwr.methods.pynvml import PynvmlMethod
from repro.jpwr.methods.rocmsmi import RocmSmiMethod
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.power.sensors import DeviceRegistry, SimulatedDevice
from repro.simcluster.clock import VirtualClock


#: Utilisation of the non-compute phases of a step (communication,
#: optimizer, host waits keep a device lightly busy, not idle).
LOW_PHASE_UTILISATION = 0.25


@dataclass
class TrainResult:
    """Outcome of one benchmark run (one JUBE result-table row)."""

    system_tag: str
    benchmark: str
    global_batch_size: int
    devices: int
    iterations: int
    elapsed_s: float
    throughput: float
    throughput_unit: str
    energy_per_device_wh: float
    mean_power_per_device_w: float
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def throughput_per_device(self) -> float:
        """Figure of merit normalised per device."""
        return self.throughput / self.devices

    @property
    def efficiency_per_wh(self) -> float:
        """Work per unit energy (tokens/Wh or images/Wh), per device.

        The paper's energy-efficiency metric: units processed per device
        divided by energy consumed per device over the same window.
        """
        if self.energy_per_device_wh <= 0:
            raise ConfigError("no energy recorded")
        work_per_device = self.throughput_per_device * self.elapsed_s
        return work_per_device / self.energy_per_device_wh

    def row(self) -> dict[str, float | str]:
        """Flat dict for tabular output (JUBE result style)."""
        return {
            "system": self.system_tag,
            "benchmark": self.benchmark,
            "global_batch_size": self.global_batch_size,
            "devices": self.devices,
            "iterations": self.iterations,
            "elapsed_s": round(self.elapsed_s, 3),
            f"throughput_{self.throughput_unit}": round(self.throughput, 2),
            f"throughput_{self.throughput_unit}_per_device": round(
                self.throughput_per_device, 2
            ),
            "energy_per_device_wh": round(self.energy_per_device_wh, 4),
            "mean_power_per_device_w": round(self.mean_power_per_device_w, 2),
            "efficiency_per_wh": round(self.efficiency_per_wh, 2),
            **{
                k: round(v, 4) if isinstance(v, (int, float)) else v
                for k, v in self.extra.items()
            },
        }


def jpwr_methods_for_node(node: NodeSpec, registry: DeviceRegistry) -> list[PowerMethod]:
    """The jpwr backends CARAML would activate on this node.

    GH200 nodes use both pynvml and the gh sysfs method (paper:
    "Multiple backends can be used at the same time, which is useful
    for GH200").
    """
    vendor = node.accelerator.vendor
    if vendor is Vendor.NVIDIA:
        methods: list[PowerMethod] = [PynvmlMethod(registry)]
        if node.accelerator.form_factor == "superchip":
            methods.append(GraceHopperMethod(registry))
        return methods
    if vendor is Vendor.AMD:
        return [RocmSmiMethod(registry)]
    return [GcIpuInfoMethod(registry)]


class PhaseRunner:
    """Drives devices through utilisation phases under a jpwr scope.

    Samples are taken exactly at utilisation transitions, making the
    trapezoidal energy integration exact for the piecewise-constant
    power profile the simulation produces.

    While every read is a pure function of the phase utilisation, each
    sample passes that utilisation as its key
    (:meth:`~repro.jpwr.ctxmgr.MeasuredScope.sample`), so the sensors
    are read once per utilisation level and later phase edges reuse
    that row.  That holds when every sensor the scope's methods read is
    noise-free and healthy (checked once, here) and no fault-injection
    scope is active (checked per :meth:`run_phases` or :meth:`replay`
    call); otherwise every sample reads.  It also assumes that only
    this runner changes the utilisation of those sensors while it
    runs, as in :func:`measure_run`, which gives each run a fresh
    registry.  A skipped read leaves a driven device's energy counter
    exact: the device accrues the interval at its next
    :meth:`~repro.power.sensors.SimulatedDevice.set_utilisation`, at
    the same instant and with the same ``dt``.
    """

    def __init__(
        self,
        clock: VirtualClock,
        scope: MeasuredScope,
        devices: list[SimulatedDevice],
    ) -> None:
        if not devices:
            raise ConfigError("phase runner needs at least one device")
        self.clock = clock
        self.scope = scope
        self.devices = devices
        self.steps_run = 0
        self._reuse_rows = all(
            dev.noise_fraction == 0 and dev.healthy
            for method in scope.methods
            for dev in method.devices()
        )

    def run_phase(self, duration_s: float, utilisation: float) -> None:
        """One constant-utilisation phase across all active devices."""
        self.run_phases(((duration_s, utilisation),), 1)

    def run_phases(
        self, cycle: Sequence[tuple[float, float]], count: int
    ) -> list[float]:
        """``count`` repetitions of a cycle of ``(duration, utilisation)``
        phases.

        Gives what one :meth:`run_phase` call per phase gives: the clock
        ends where they leave it, the frame gains the same rows and
        every driven device's counter accrues the same intervals.
        Returns the ``count * len(cycle) + 1`` phase boundaries, the
        left fold ``t += duration`` from the current time; a phase of
        non-positive duration runs nothing and ends where it starts.
        The phases are sampled or appended by the rule of
        :meth:`replay`.  The whole call is one ``engine/phase`` span.
        """
        start = self.clock.now()
        durations = [d for d, _ in cycle if d > 0]
        utilisations = [u for d, u in cycle if d > 0]
        edges = list(accumulate(durations * count, initial=start))
        if len(durations) == len(cycle):
            bounds = edges
        else:
            bounds = list(
                accumulate([max(d, 0.0) for d, _ in cycle] * count, initial=start)
            )
        tracer = get_tracer()
        attrs = None
        if tracer.enabled:
            attrs = {
                "utilisation": (
                    cycle[0][1] if len(cycle) == 1 else [u for _, u in cycle]
                )
            }
        with tracer.span("engine/phase", attrs=attrs):
            self.replay(edges, utilisations, [1] * len(utilisations))
        return bounds

    def replay(
        self,
        edges: Sequence[float],
        utilisations: Sequence[float],
        runs: Sequence[int],
    ) -> None:
        """The phases ending at ``edges[1:]``: ``runs[j]`` phases at
        ``utilisations[j]`` for each j in turn, that period repeated.

        ``edges`` is the left fold of the phases' positive durations
        from the current time: a :meth:`run_phases` cycle fold, or a
        whole run scheduled ahead of the clock.  Gives what one
        :meth:`run_phase` call per phase gives, by one rule: while rows
        are reused, a phase is sampled edge by edge only when its
        utilisation has no kept row, so each utilisation's first read
        sees the device state per-phase calls give it; the clock then
        stands at that phase's start, with the stretch before it
        already appended.  Every other phase is appended from kept
        rows: it gains its start and end row
        (:meth:`~repro.jpwr.ctxmgr.MeasuredScope.repeat_row`), the
        devices accrue at each phase start
        (:meth:`~repro.power.sensors.SimulatedDevice.set_utilisation_at`)
        and the clock jumps to the stretch's last edge.  Once every
        utilisation of the period has a kept row, all phases left go in
        one append.  Without reuse every edge is sampled.  Opens no
        span.
        """
        stop = len(edges) - 1
        reuse = self._reuse_rows and not get_injector().enabled
        phase = 0
        while phase < stop:
            if reuse and all(map(self.scope.has_row, utilisations)):
                self._append(edges, utilisations, runs, phase, stop)
                return
            phase = self._walk(edges, utilisations, runs, phase, reuse)

    def _walk(
        self,
        edges: Sequence[float],
        utilisations: Sequence[float],
        runs: Sequence[int],
        phase: int,
        reuse: bool,
    ) -> int:
        """One period of a replay from ``phase``; returns the phase after it.

        A phase whose utilisation has no kept row (any phase, without
        reuse) is sampled edge by edge once the stretch before it is
        appended; the stretch after the last such phase is appended
        too.
        """
        first = phase  # the stretch is phases first..phase - 1
        keys: list[float] = []
        lengths: list[int] = []
        for utilisation, run in zip(utilisations, runs):
            while run and not (reuse and self.scope.has_row(utilisation)):
                if keys:
                    self._append(edges, keys, lengths, first, phase)
                    keys, lengths = [], []
                self._sample(edges, phase, utilisation, reuse)
                phase += 1
                run -= 1
                first = phase
            if run:
                keys.append(utilisation)
                lengths.append(run)
                phase += run
        if keys:
            self._append(edges, keys, lengths, first, phase)
        return phase

    def _append(
        self,
        edges: Sequence[float],
        utilisations: Sequence[float],
        runs: Sequence[int],
        first: int,
        stop: int,
    ) -> None:
        """Phases ``first`` to ``stop - 1`` from kept rows: ``runs[j]``
        at ``utilisations[j]`` for each j in turn, that period repeated."""
        starts = edges[first:stop]
        times = [0.0] * (2 * len(starts))
        times[0::2] = starts
        times[1::2] = edges[first + 1:stop + 1]
        self.scope.repeat_row(utilisations, [2 * run for run in runs], times)
        period: list[float] = []
        for utilisation, run in zip(utilisations, runs):
            period += [utilisation] * run
        period *= len(starts) // len(period)
        for dev in self.devices:
            dev.set_utilisation_at(period, starts)
        self.clock.advance_to(edges[stop])

    def _sample(
        self, edges: Sequence[float], phase: int, utilisation: float, reuse: bool
    ) -> None:
        """Phase ``phase``, ending at ``edges[phase + 1]``, edge by edge:
        the devices switch to ``utilisation``, then the scope samples its
        start and its end, keyed by the utilisation while rows are reused."""
        key = utilisation if reuse else None
        for dev in self.devices:
            dev.set_utilisation(utilisation)
        self.scope.sample(key)
        self.clock.advance_to(edges[phase + 1])
        self.scope.sample(key)

    def run_step(self, step: StepBreakdown) -> None:
        """One optimizer step: a busy phase plus a low-utilisation tail.

        The active fault-injection scope is consulted first: an armed
        ``oom`` fault aborts the run mid-training with
        :class:`~repro.errors.OutOfMemoryError`, and active
        ``straggler`` faults stretch both phases by their slowdown
        factor (the device is slower, not busier — utilisation is
        unchanged, so energy grows with the stretched time).
        """
        injector = get_injector()
        step_index = self.steps_run
        self.steps_run += 1
        factor = 1.0
        if injector.enabled:
            now = self.clock.now()
            injector.check_step(now, step_index)
            factor = injector.straggler_factor(now, step_index)
        with get_tracer().span("engine/step"):
            for duration_s, utilisation in _step_cycle(step, factor):
                self.run_phase(duration_s, utilisation)

    def run_steps(self, step: StepBreakdown, count: int) -> None:
        """``count`` optimizer steps of one breakdown.

        Gives what ``count`` :meth:`run_step` calls give, and makes them
        while the tracer records (each step keeps its ``engine/step``
        span), while a fault-injection scope is active (each step is
        checked and may straggle) or while rows are not reused.
        Otherwise the steps are one :meth:`run_phases` call over the
        step's cycle at factor 1.
        """
        if get_tracer().enabled or get_injector().enabled or not self._reuse_rows:
            for _ in range(count):
                self.run_step(step)
            return
        self.steps_run += count
        self.run_phases(_step_cycle(step, 1.0), count)

    def idle(self, duration_s: float) -> None:
        """Idle period (setup, data staging)."""
        with get_tracer().span("engine/idle"):
            self.run_phase(duration_s, 0.0)


def _step_cycle(
    step: StepBreakdown, factor: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """A step's busy phase and low-utilisation tail, stretched by ``factor``."""
    return (
        (step.busy_s * factor, step.utilisation),
        (
            (step.total_s - step.busy_s) * factor,
            min(step.utilisation, LOW_PHASE_UTILISATION),
        ),
    )


def primary_energy_labels(
    columns, devices: list[SimulatedDevice]
) -> list[str]:
    """Power-frame columns carrying the active devices' primary energy.

    The primary jpwr method names its columns ``f"{prefix}{index}"``
    (``gpu0``, ``gcd3``, ``ipu1``, ...); auxiliary backends (the GH200
    sysfs module) use other labels and are excluded.  Shared by
    :func:`measure_run` and the serving simulator's per-request energy
    attribution so both select the same columns.
    """
    labels = []
    for dev in devices:
        for label in columns:
            prefix = label.rstrip("0123456789")
            if prefix in ("gpu", "gcd", "ipu") and label == prefix + str(dev.index):
                labels.append(label)
    return labels


def measure_run(
    node: NodeSpec,
    devices_used: int,
    body,
    *,
    span_name: str = "engine/run",
    span_attrs: dict | None = None,
) -> tuple[object, float, float, float]:
    """Execute ``body(runner, clock)`` under a jpwr scope.

    The scope is manual: it samples on the phase edges the runner
    drives and at no fixed interval, so the trapezoidal integral of
    the piecewise-constant power is exact.

    Returns ``(body_result, elapsed_s, energy_per_device_wh,
    mean_power_per_device_w)`` where energy/power are averaged over the
    active devices only.

    When a tracer with a virtual clock is active (``--trace`` runs),
    the run adopts that clock instead of creating its own, so every run
    in the traced scope shares one monotonically advancing simulated
    timeline; the run is recorded as a ``span_name`` span and the jpwr
    sample frame is replayed onto ``power/<device>`` counter tracks.
    """
    if devices_used < 1 or devices_used > node.logical_devices_per_node:
        raise ConfigError(
            f"devices_used={devices_used} out of range for {node.name}"
        )
    tracer = get_tracer()
    clock = tracer.virtual_clock if tracer.virtual_clock is not None else VirtualClock()
    registry = DeviceRegistry.for_node(node, clock=clock)
    active = [registry.get(i) for i in range(devices_used)]
    methods = jpwr_methods_for_node(node, registry)
    start = clock.now()
    attrs = {"system": node.jube_tag, "devices": devices_used}
    if span_attrs:
        attrs.update(span_attrs)
    with tracer.span(span_name, attrs=attrs):
        with get_power(methods, clock=clock, manual=True) as scope:
            runner = PhaseRunner(clock, scope, active)
            result = body(runner, clock)
    elapsed = clock.now() - start
    # Energy per active device from the primary method's columns, which
    # are named f"{prefix}{device_index}" (gpu0, gcd3, ipu1, ...).  Only
    # those columns are integrated: the idle devices and the auxiliary
    # rails lie outside the result.  The frame alone is read: the
    # methods' additional data would re-read sensors that a fault may
    # still hold down.
    prefix_labels = primary_energy_labels(scope.df.columns, active)
    energies = integrate_energy_wh(scope.df, prefix_labels)
    if not prefix_labels:
        raise ConfigError("no energy columns matched the active devices")
    per_device_wh = sum(energies[lbl] for lbl in prefix_labels) / len(prefix_labels)
    mean_power = per_device_wh * 3600.0 / elapsed if elapsed > 0 else 0.0
    if tracer.enabled:
        # Replay the sample frame as counter tracks aligned with the
        # spans; only the active-device columns carry the result-table
        # energy, so only they become power/ tracks (auxiliary backends
        # like the GH200 sysfs module get a power_aux/ prefix).
        for row in scope.df.rows():
            t = row[TIME_COLUMN]
            for label, value in row.items():
                if label == TIME_COLUMN:
                    continue
                prefix = "power/" if label in prefix_labels else "power_aux/"
                tracer.counter(f"{prefix}{label}", value, t=t)
    metrics = get_metrics()
    metrics.counter(
        "energy_wh_total", "integrated device energy across runs"
    ).inc(per_device_wh * len(active), system=node.jube_tag)
    metrics.histogram(
        "run_elapsed_s", "simulated duration of measured runs"
    ).observe(elapsed, system=node.jube_tag)
    return result, elapsed, per_device_wh, mean_power

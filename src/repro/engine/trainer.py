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

from repro.engine.perf import StepBreakdown
from repro.errors import ConfigError
from repro.faults.injector import get_injector
from repro.hardware.accelerator import Vendor
from repro.hardware.node import NodeSpec
from repro.jpwr.ctxmgr import MeasuredScope, get_power
from repro.jpwr.energy import TIME_COLUMN, energy_frame
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
    scope is active (checked per phase); otherwise every sample reads.
    It also assumes that only this runner changes the utilisation of
    those sensors while it runs, as in :func:`measure_run`, which gives
    each run a fresh registry.  A skipped read leaves a driven device's
    energy counter exact: the device accrues the interval at its next
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
        if duration_s <= 0:
            return
        key = (
            utilisation
            if self._reuse_rows and not get_injector().enabled
            else None
        )
        with get_tracer().span("engine/phase", attrs={"utilisation": utilisation}):
            for dev in self.devices:
                dev.set_utilisation(utilisation)
            self.scope.sample(key)
            self.clock.advance(duration_s)
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
            self.run_phase(step.busy_s * factor, step.utilisation)
            tail = (step.total_s - step.busy_s) * factor
            self.run_phase(tail, min(step.utilisation, LOW_PHASE_UTILISATION))

    def idle(self, duration_s: float) -> None:
        """Idle period (setup, data staging)."""
        with get_tracer().span("engine/idle"):
            self.run_phase(duration_s, 0.0)


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
    sample_interval_ms: float = 100.0,
    span_name: str = "engine/run",
    span_attrs: dict | None = None,
) -> tuple[object, float, float, float]:
    """Execute ``body(runner, clock)`` under a jpwr scope.

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
        with get_power(methods, sample_interval_ms, clock=clock, manual=True) as scope:
            runner = PhaseRunner(clock, scope, active)
            result = body(runner, clock)
    elapsed = clock.now() - start
    # Energy per active device from the primary method's columns, which
    # are named f"{prefix}{device_index}" (gpu0, gcd3, ipu1, ...).  The
    # frame alone is integrated: the methods' additional data would
    # re-read sensors that a fault may still hold down.
    energy_df = energy_frame(scope.df)
    prefix_labels = primary_energy_labels(energy_df.columns, active)
    if not prefix_labels:
        raise ConfigError("no energy columns matched the active devices")
    per_device_wh = sum(energy_df.row(0)[lbl] for lbl in prefix_labels) / len(
        prefix_labels
    )
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

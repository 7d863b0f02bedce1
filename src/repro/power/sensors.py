"""Simulated device power sensors.

A :class:`SimulatedDevice` stands in for one accelerator as seen by the
vendor management libraries: it has a *current utilisation* (set by
whoever is "running" work on it, e.g. the jpwr CLI's workload replayer
or a test), an accumulating energy counter, and an instantaneous power
read with optional measurement noise -- the three things NVML /
rocm-smi / gcipuinfo / hwmon actually expose.

Time comes from an injectable clock callable so the same sensor works
under real time (``time.monotonic``, used by the jpwr sampling thread)
and under the virtual clock of :mod:`repro.simcluster.clock`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import MeasurementError
from repro.faults.injector import get_injector
from repro.hardware.accelerator import AcceleratorSpec
from repro.power.model import (
    PowerModel,
    power_model_for_device,
    power_model_for_node,
)


@dataclass(frozen=True)
class SensorReading:
    """One instantaneous read: timestamp, power, accumulated energy."""

    time_s: float
    power_w: float
    energy_j: float


class SimulatedDevice:
    """One accelerator device with readable power counters.

    Parameters
    ----------
    index:
        Device index as the management library would report it.
    spec:
        The accelerator spec (used for names and the default model).
    model:
        Power model; defaults to the calibrated model for ``spec``.
    clock:
        Zero-argument callable returning seconds; defaults to
        ``time.monotonic``.
    noise_fraction:
        Relative standard deviation of multiplicative Gaussian read
        noise (real counters jitter by a percent or two).
    seed:
        Seed of the per-device RNG so reads are reproducible.
    """

    def __init__(
        self,
        index: int,
        spec: AcceleratorSpec,
        *,
        model: PowerModel | None = None,
        clock: Callable[[], float] | None = None,
        noise_fraction: float = 0.0,
        seed: int | None = None,
    ) -> None:
        self.index = index
        self.spec = spec
        self.model = model if model is not None else power_model_for_device(spec)
        self.clock = clock if clock is not None else time.monotonic
        self.noise_fraction = float(noise_fraction)
        self._rng = np.random.default_rng(seed if seed is not None else index)
        self._lock = threading.Lock()
        self._util = 0.0
        self._energy_j = 0.0
        #: Power per utilisation, filled by :meth:`set_utilisation_at`.
        self._power: dict[float, float] = {}
        self._last_update_s = self.clock()
        self.healthy = True

    @property
    def name(self) -> str:
        """Device name as a management library would report it."""
        return f"{self.spec.name} #{self.index}"

    # -- state driven by the workload -----------------------------------

    def set_utilisation(self, utilisation: float) -> None:
        """Change the device's current utilisation.

        Energy is accrued for the elapsed interval at the *previous*
        utilisation before switching, so the accumulated counter stays
        exact no matter how often callers flip utilisation.
        """
        if not 0.0 <= utilisation <= 1.0:
            raise ValueError(f"utilisation must be in [0,1], got {utilisation}")
        with self._lock:
            self._accrue_locked()
            self._util = float(utilisation)

    def set_utilisation_at(
        self, utilisations: Sequence[float], times: Sequence[float]
    ) -> None:
        """Set ``utilisations[i]`` at ``times[i]`` for each i, oldest first.

        The counter accrues exactly as one :meth:`set_utilisation` call
        at each of those clock times would make it, so a driver that
        advanced the clock past them in one jump keeps it exact: the
        first interval accrues at the current utilisation, and each
        interval's energy is ``power(u) * dt`` added in the same order.
        The device's model never changes, so it computes the power of
        each distinct utilisation once and keeps it.
        """
        power = self._power
        for utilisation in set(utilisations).difference(power):
            if not 0.0 <= utilisation <= 1.0:
                raise ValueError(f"utilisation must be in [0,1], got {utilisation}")
            power[utilisation] = self.model.power(float(utilisation))
        with self._lock:
            util = self._util
            p = power[util] if util in power else self.model.power(util)
            energy = self._energy_j
            last = self._last_update_s
            for util, now in zip(utilisations, times):
                dt = now - last
                if dt > 0:
                    energy += p * dt
                    last = now
                p = power[util]
            self._energy_j = energy
            self._last_update_s = last
            self._util = float(util)

    def fail(self) -> None:
        """Mark the sensor unhealthy; subsequent reads raise.

        Used by the failure-injection tests: real management libraries
        occasionally return errors (falling off the bus, driver resets)
        and jpwr must cope.
        """
        self.healthy = False

    def repair(self) -> None:
        """Restore a failed sensor."""
        self.healthy = True

    # -- counter reads ---------------------------------------------------

    def read(self) -> SensorReading:
        """Read timestamp, instantaneous power and accumulated energy.

        An active fault-injection scope can perturb the read the way
        real management libraries misbehave: ``sensor_dropout`` raises
        (the device fell off the bus), ``sensor_spike`` offsets the
        power (the paper's MI250 anomaly class), ``sensor_nan`` poisons
        it (jpwr discards the sample as anomalous).
        """
        if not self.healthy:
            raise MeasurementError(f"{self.name}: sensor read failed")
        with self._lock:
            now = self._accrue_locked()
            power = self.model.power(self._util)
            if self.noise_fraction > 0:
                power *= 1.0 + self.noise_fraction * float(self._rng.standard_normal())
                power = max(power, 0.0)
            energy_j = self._energy_j
        fault = get_injector().sensor_fault(self.index, now)
        if fault is not None:
            kind, magnitude = fault
            if kind == "sensor_dropout":
                raise MeasurementError(f"{self.name}: injected sensor dropout")
            if kind == "sensor_spike":
                power = max(power + magnitude, 0.0)
            else:  # sensor_nan
                power = float("nan")
        return SensorReading(time_s=now, power_w=power, energy_j=energy_j)

    def read_power_w(self) -> float:
        """Instantaneous power only (what nvml's power read returns)."""
        return self.read().power_w

    def read_energy_j(self) -> float:
        """Accumulated energy counter (what nvml's total-energy returns)."""
        return self.read().energy_j

    def utilisation(self) -> float:
        """Current utilisation (management libraries expose this too)."""
        with self._lock:
            return self._util

    def _accrue_locked(self) -> float:
        """Advance the internal energy counter to 'now'; returns now."""
        now = self.clock()
        dt = now - self._last_update_s
        if dt > 0:
            self._energy_j += self.model.energy(self._util, dt)
            self._last_update_s = now
        return now


class DeviceRegistry:
    """The set of devices visible on one (simulated) node.

    jpwr backends enumerate devices through this registry the way
    pynvml enumerates GPUs.  A registry is usually built by
    :func:`repro.simcluster.slurm.allocate_node` or directly in tests.
    """

    def __init__(self) -> None:
        self._devices: list[SimulatedDevice] = []

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self):
        return iter(self._devices)

    def add(self, device: SimulatedDevice) -> SimulatedDevice:
        """Register a device; indices must be unique."""
        if any(d.index == device.index for d in self._devices):
            raise MeasurementError(f"duplicate device index {device.index}")
        self._devices.append(device)
        return device

    def get(self, index: int) -> SimulatedDevice:
        """Look up a device by index."""
        for d in self._devices:
            if d.index == index:
                return d
        raise MeasurementError(f"no device with index {index}")

    def by_vendor(self, vendor) -> list[SimulatedDevice]:
        """All devices of one vendor (what a vendor library would see)."""
        return [d for d in self._devices if d.spec.vendor == vendor]

    @classmethod
    def for_node(
        cls,
        node,
        *,
        clock: Callable[[], float] | None = None,
        noise_fraction: float = 0.0,
        seed: int = 0,
    ) -> "DeviceRegistry":
        """Build the registry of one Table I node.

        Logical devices are enumerated the way the OS would (8 for the
        MI250 node) and share the node's power model
        (:func:`~repro.power.model.power_model_for_node`).
        """
        registry = cls()
        model = power_model_for_node(node)
        for i in range(node.logical_devices_per_node):
            registry.add(
                SimulatedDevice(
                    i,
                    node.accelerator,
                    model=model,
                    clock=clock,
                    noise_fraction=noise_fraction,
                    seed=seed * 1000 + i,
                )
            )
        return registry

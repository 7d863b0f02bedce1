"""Base class and device discovery for jpwr methods.

Real jpwr methods discover devices through global vendor libraries
(pynvml enumerates every GPU in the node).  The simulated equivalent is
a process-global *active registry* that whoever owns the node (the
Slurm job, a test, the CLI) installs before measuring; methods may also
be constructed against an explicit registry.
"""

from __future__ import annotations

import abc
import math


from repro.errors import MeasurementError
from repro.hardware.accelerator import Vendor
from repro.jpwr.frame import DataFrame
from repro.power.sensors import DeviceRegistry, SimulatedDevice

_ACTIVE_REGISTRY: DeviceRegistry | None = None


def quantize(value_w: float, scale: float) -> float:
    """Truncate to a backend's reporting granularity (1/``scale`` watts).

    Non-finite readings (a faulted sensor returning NaN) pass through
    unchanged so the sampling layer can count and discard them instead
    of crashing in ``int()``.
    """
    if not math.isfinite(value_w):
        return value_w
    return int(value_w * scale) / scale


def set_active_registry(registry: DeviceRegistry | None) -> None:
    """Install (or clear, with None) the process-global device registry."""
    global _ACTIVE_REGISTRY
    _ACTIVE_REGISTRY = registry


def get_active_registry() -> DeviceRegistry:
    """The installed registry; raises if none is installed."""
    if _ACTIVE_REGISTRY is None:
        raise MeasurementError(
            "no active device registry; call set_active_registry() or pass "
            "an explicit registry to the method"
        )
    return _ACTIVE_REGISTRY


class PowerMethod(abc.ABC):
    """One measurement backend.

    Subclasses define :attr:`vendor` (device filter), :attr:`prefixes`
    and :meth:`read_device`, and may override :meth:`additional_data`.
    ``read()`` returns the instantaneous power per measured quantity,
    keyed by a stable column label; those labels become DataFrame
    columns.  A read depends only on the sensor reads of the method's
    devices, which is what lets a phase runner reuse a row
    (:class:`repro.engine.trainer.PhaseRunner`).
    """

    #: CLI name, overridden by subclasses.
    name: str = "base"
    #: Vendor whose devices this method measures.
    vendor: Vendor | None = None
    #: Column-label prefixes of one device, in :meth:`read_device`
    #: order; a label is a prefix plus the device index (``gpu0``).
    prefixes: tuple[str, ...] = ()

    def __init__(self, registry: DeviceRegistry | None = None) -> None:
        self._registry = registry

    @property
    def registry(self) -> DeviceRegistry:
        """Explicit registry if given, else the process-global one."""
        return self._registry if self._registry is not None else get_active_registry()

    def devices(self) -> list[SimulatedDevice]:
        """Devices this method measures on the current node."""
        if self.vendor is None:
            return list(self.registry)
        return self.registry.by_vendor(self.vendor)

    def init(self) -> None:
        """Hook called once when measurement starts.

        Raises MeasurementError when the method has nothing to measure,
        matching real jpwr failing fast on an absent vendor library.
        """
        if not self.devices():
            raise MeasurementError(f"method {self.name!r}: no matching devices")

    def labels(self) -> list[str]:
        """Column labels this method produces (order of ``read()``).

        Named from the devices without reading a sensor, so a sensor
        that is faulted when a scope opens costs that scope its first
        sample, not the run.
        """
        return [
            f"{prefix}{dev.index}" for dev in self.devices() for prefix in self.prefixes
        ]

    @abc.abstractmethod
    def read_device(self, device: SimulatedDevice) -> tuple[float, ...]:
        """Instantaneous power of one device per prefix, in watts."""

    def read(self) -> dict[str, float]:
        """Instantaneous power per label, in watts."""
        values = [value for dev in self.devices() for value in self.read_device(dev)]
        return dict(zip(self.labels(), values))

    def additional_data(self) -> dict[str, DataFrame]:
        """Extra per-method DataFrames returned by ``scope.energy()``."""
        return {}

"""NVIDIA method: simulated NVML (pynvml) backend.

Real jpwr reads ``nvmlDeviceGetPowerUsage`` (milliwatts) per GPU; the
simulated version reads the same quantity from the simulated device
sensors, including NVML's reporting granularity (integer milliwatts).
The accumulated-energy counter (``nvmlDeviceGetTotalEnergyConsumption``,
millijoules) is exposed via :meth:`additional_data`.
"""

from __future__ import annotations

from repro.hardware.accelerator import Vendor
from repro.jpwr.frame import DataFrame
from repro.jpwr.methods.base import PowerMethod, quantize
from repro.power.sensors import SimulatedDevice


class PynvmlMethod(PowerMethod):
    """Power via the (simulated) NVIDIA Management Library."""

    name = "pynvml"
    vendor = Vendor.NVIDIA
    prefixes = ("gpu",)

    def read_device(self, device: SimulatedDevice) -> tuple[float, ...]:
        """One GPU's instantaneous power in watts.

        NVML reports integer milliwatts; the truncation is reproduced
        so sampled values carry the same quantisation as real data.
        """
        return (quantize(device.read_power_w(), 1000.0),)

    def additional_data(self) -> dict[str, DataFrame]:
        """NVML total-energy counters (converted to Wh) per GPU."""
        df = DataFrame(["device", "energy_wh"])
        for dev in self.devices():
            millijoules = int(dev.read_energy_j() * 1000.0)
            df.add_row(
                {"device": float(dev.index), "energy_wh": millijoules / 1000.0 / 3600.0}
            )
        return {"nvml_energy_counters": df}

"""Graphcore method: simulated gcipuinfo backend.

The Graphcore IPU Info library reports per-IPU board power.  IPUs sit
in pairs on M2000 boards; gcipuinfo exposes the per-IPU share.
"""

from __future__ import annotations

from repro.hardware.accelerator import Vendor
from repro.jpwr.frame import DataFrame
from repro.jpwr.methods.base import PowerMethod, quantize
from repro.power.sensors import SimulatedDevice


class GcIpuInfoMethod(PowerMethod):
    """Power via the (simulated) Graphcore IPU Info library."""

    name = "gcipuinfo"
    vendor = Vendor.GRAPHCORE
    prefixes = ("ipu",)

    def read_device(self, device: SimulatedDevice) -> tuple[float, ...]:
        """One IPU's power in watts (gcipuinfo reports tenths of a watt)."""
        return (quantize(device.read_power_w(), 10.0),)

    def additional_data(self) -> dict[str, DataFrame]:
        """Board temperatures -- gcipuinfo exposes them; the simulation
        derives a plausible temperature from the power draw."""
        df = DataFrame(["device", "board_temp_c"])
        for dev in self.devices():
            # Simple thermal proxy: ambient + power-proportional rise.
            df.add_row(
                {
                    "device": float(dev.index),
                    "board_temp_c": 30.0 + dev.read_power_w() * 0.12,
                }
            )
        return {"gcipuinfo_temps": df}

"""Power substrate: analytic device power models and simulated sensors.

The model layer answers "what does this device draw at utilisation u";
the sensor layer exposes that as the counter interfaces (instantaneous
watts, accumulated millijoules) the jpwr backends read.
"""

from repro.power.model import (
    DEFAULT_IDLE_FRACTION,
    PowerModel,
    power_model_for_device,
    power_model_for_node,
)
from repro.power.dvfs import (
    FrequencyModel,
    apply_power_cap,
    frequency_model_for_device,
    frequency_model_for_node,
)
from repro.power.trace import PowerTrace, UtilisationTimeline
from repro.power.sensors import SimulatedDevice, SensorReading, DeviceRegistry

__all__ = [
    "DEFAULT_IDLE_FRACTION",
    "PowerModel",
    "power_model_for_device",
    "power_model_for_node",
    "FrequencyModel",
    "apply_power_cap",
    "frequency_model_for_device",
    "frequency_model_for_node",
    "PowerTrace",
    "UtilisationTimeline",
    "SimulatedDevice",
    "SensorReading",
    "DeviceRegistry",
]

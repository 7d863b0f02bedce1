"""Mean per-device step power, the base of the figures' energy metrics.

It is closed-form (no simulated run needed): it evaluates a step
model's breakdown directly, which is what the figure/heatmap
generators sweep.  The simulated-run path (engines + jpwr) produces
the same numbers; tests assert the two agree.
"""

from __future__ import annotations

from repro.engine.perf import StepBreakdown
from repro.engine.trainer import LOW_PHASE_UTILISATION
from repro.errors import ConfigError
from repro.hardware.node import NodeSpec
from repro.power.model import power_model_for_node


def mean_step_power_w(node: NodeSpec, step: StepBreakdown) -> float:
    """Time-averaged per-device power over one step's phases.

    The busy phase draws at the step's utilisation; the remainder
    (communication, optimizer, host waits) at the low-phase level --
    the same profile the engines drive through the sensors.
    """
    model = power_model_for_node(node)
    busy = step.busy_s
    tail = step.total_s - busy
    if step.total_s <= 0:
        raise ConfigError("step has zero duration")
    energy = model.power(step.utilisation) * busy + model.power(
        min(step.utilisation, LOW_PHASE_UTILISATION)
    ) * tail
    return energy / step.total_s

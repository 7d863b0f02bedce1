"""Power-cap / DVFS frequency model (cap → clock → achievable perf).

Lowering a device's enforced power cap (``nvidia-smi -pl``,
``rocm-smi --setpoweroverdrive``) makes the driver pick the highest
sustainable clock under that budget.  Dynamic power scales roughly with
``f * V^2`` and voltage tracks frequency on the DVFS curve, so the
power drawn above idle follows a super-linear power law in the clock
fraction ``f``:

    P(f) = P_idle + (P_max - P_idle) * f ** alpha        (alpha ~ 2.4)

Inverting gives the clock the driver settles at for a cap ``C``:

    f(C) = ((C - P_idle) / (P_max - P_idle)) ** (1 / alpha)

Achievable compute scales linearly with the SM clock; HBM sits on its
own (mildly coupled) clock domain, so memory bandwidth degrades much
more slowly — modelled as ``f ** beta`` with a small ``beta``.  This is
exactly why the paper's tokens/Wh-optimal operating point sits *below*
TDP: near TDP the throughput slope in the cap is only ``1/alpha``
(sublinear) while power falls linearly, so efficiency initially rises
as the cap drops, until idle/static draw and non-frequency-scaling
overheads take over.

The exported surface:

* :class:`FrequencyModel` — calibrated cap → clock/compute/bandwidth
  fractions for one logical device.
* :func:`frequency_model_for_device` / :func:`frequency_model_for_node`
  — build one from the calibrated power model.
* :func:`apply_power_cap` — derate a :class:`~repro.hardware.node.NodeSpec`
  to a per-device cap so every downstream perf and power consumer sees
  the capped device.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.hardware.accelerator import AcceleratorSpec
from repro.hardware.node import NodeSpec
from repro.power.model import power_model_for_device

#: DVFS power-law exponent (P_dynamic ~ f^alpha).  2.4 matches the
#: published GPU cap-sweep curves: ~2 from f*V^2 with V clamped at the
#: low end, steeper where voltage still scales.
DEFAULT_ALPHA = 2.4

#: Memory bandwidth exponent.  HBM clocks sit in a separate domain and
#: are barely touched by core DVFS; the residual coupling (L2/fabric
#: clocks) gives a weak dependence.
DEFAULT_BANDWIDTH_EXPONENT = 0.35

#: Drivers refuse caps that would push the core below a floor clock;
#: the achievable clock saturates there no matter how low the cap.
DEFAULT_MIN_CLOCK_FRACTION = 0.4


@dataclass(frozen=True)
class FrequencyModel:
    """Cap → clock → achievable-performance curve of one logical device.

    ``idle_watts`` / ``max_watts`` bracket the device's calibrated draw
    (from :func:`repro.power.model.power_model_for_device`); the three
    exponents are the DVFS calibration described in the module docstring.
    """

    idle_watts: float
    max_watts: float
    alpha: float = DEFAULT_ALPHA
    bandwidth_exponent: float = DEFAULT_BANDWIDTH_EXPONENT
    min_clock_fraction: float = DEFAULT_MIN_CLOCK_FRACTION

    def __post_init__(self) -> None:
        if self.idle_watts < 0:
            raise ConfigError("idle watts must be >= 0")
        if self.max_watts <= self.idle_watts:
            raise ConfigError("max watts must exceed idle watts")
        if self.alpha <= 1.0:
            raise ConfigError("alpha must be > 1 (super-linear DVFS law)")
        if not 0.0 <= self.bandwidth_exponent <= 1.0:
            raise ConfigError("bandwidth exponent must be in [0, 1]")
        if not 0.0 < self.min_clock_fraction <= 1.0:
            raise ConfigError("min clock fraction must be in (0, 1]")

    def clock_fraction(self, cap_watts: float) -> float:
        """Sustainable core-clock fraction under a cap (1.0 = uncapped).

        Monotone non-decreasing in the cap; saturates at 1.0 for caps
        at/above ``max_watts`` and at ``min_clock_fraction`` for caps
        at/below the draw the floor clock itself needs.
        """
        if cap_watts <= 0:
            raise ConfigError(f"power cap must be positive, got {cap_watts}")
        if cap_watts >= self.max_watts:
            return 1.0
        headroom = self.max_watts - self.idle_watts
        usable = cap_watts - self.idle_watts
        if usable <= 0:
            return self.min_clock_fraction
        f = (usable / headroom) ** (1.0 / self.alpha)
        return max(self.min_clock_fraction, min(1.0, f))

    def compute_fraction(self, cap_watts: float) -> float:
        """Achievable FLOP/s fraction (compute scales with core clock)."""
        return self.clock_fraction(cap_watts)

    def bandwidth_fraction(self, cap_watts: float) -> float:
        """Achievable memory-bandwidth fraction (separate HBM domain)."""
        return self.clock_fraction(cap_watts) ** self.bandwidth_exponent

    def power_at_clock(self, clock_fraction: float) -> float:
        """Full-load draw at a given clock fraction (inverse of
        :meth:`clock_fraction` on the un-saturated branch)."""
        f = min(max(clock_fraction, 0.0), 1.0)
        return self.idle_watts + (self.max_watts - self.idle_watts) * f**self.alpha

    @property
    def min_cap_watts(self) -> float:
        """Lowest enforceable cap (the floor clock's own full-load draw)."""
        return self.power_at_clock(self.min_clock_fraction)


def frequency_model_for_device(
    spec: AcceleratorSpec,
    *,
    package_tdp_watts: float | None = None,
) -> FrequencyModel:
    """Frequency model of one logical device of ``spec``.

    Brackets the DVFS curve with the same calibrated idle/max watts the
    power model uses, so cap → clock and cap → watts stay consistent.
    """
    pm = power_model_for_device(spec, package_tdp_watts=package_tdp_watts)
    return FrequencyModel(idle_watts=pm.idle_watts, max_watts=pm.max_watts)


def frequency_model_for_node(node: NodeSpec) -> FrequencyModel:
    """Frequency model of one logical device of ``node`` (uncapped)."""
    return frequency_model_for_device(
        node.accelerator, package_tdp_watts=node.package_tdp_watts
    )


def apply_power_cap(node: NodeSpec, cap_watts: float | None) -> NodeSpec:
    """Derate ``node`` to a per-logical-device cap.

    The returned spec carries ``power_cap_watts`` (so the power layer
    saturates at the cap) and an accelerator whose ``peak_fp16_flops``
    and ``memory_bandwidth`` are scaled through the node's frequency
    model (so every perf consumer — step models, inference engine,
    serve cluster — sees the slower device without further plumbing).
    ``None`` returns the node unchanged; a cap at/above the device's
    achievable max records the cap but leaves clocks at stock.
    """
    if cap_watts is None:
        return node
    if cap_watts <= 0:
        raise ConfigError(f"power cap must be positive, got {cap_watts}")
    if node.power_cap_watts is not None:
        raise ConfigError(
            f"{node.name} already carries a {node.power_cap_watts:.0f} W "
            f"power cap; apply caps to the stock node"
        )
    fm = frequency_model_for_node(node)
    min_cap = fm.min_cap_watts
    if cap_watts < min_cap:
        # nvidia-smi-style refusal: the floor clock already draws more
        # than the requested cap, so it cannot be enforced.
        raise ConfigError(
            f"{node.name}: power cap {cap_watts:.0f} W is below the minimum "
            f"enforceable limit {min_cap:.0f} W (floor clock at "
            f"{fm.min_clock_fraction:.0%})"
        )
    f_compute = fm.compute_fraction(cap_watts)
    f_bw = fm.bandwidth_fraction(cap_watts)
    accel = replace(
        node.accelerator,
        peak_fp16_flops=node.accelerator.peak_fp16_flops * f_compute,
        memory_bandwidth=node.accelerator.memory_bandwidth * f_bw,
    )
    return replace(
        node,
        accelerator=accel,
        power_cap_watts=min(cap_watts, node.device_tdp_watts),
    )

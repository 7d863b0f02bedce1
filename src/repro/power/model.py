"""Analytic utilisation-to-power model.

The model is the standard affine-plus-exponent form used in cluster
energy accounting:

    P(u) = P_idle + (P_max - P_idle) * u ** gamma

with ``u`` the device utilisation in [0, 1].  ``P_max`` is a calibrated
fraction of TDP (training workloads rarely pin a device exactly at TDP;
PCIe cards on the other hand run *at* their power cap, which is what
makes the H100-PCIe the paper's energy-efficiency winner).  ``gamma``
slightly below 1 models the observed concavity of GPU power curves
(memory and fabric power rises faster than compute utilisation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.accelerator import AcceleratorSpec, AcceleratorKind, Vendor
from repro.hardware.node import NodeSpec


@dataclass(frozen=True)
class PowerModel:
    """Maps utilisation to electrical power for one device.

    Attributes
    ----------
    idle_watts:
        Draw at zero utilisation (fans, HBM refresh, leakage; for GH200
        packages this includes the idle Grace CPU because the paper's
        package-level counter does).
    max_watts:
        Draw at full utilisation.
    gamma:
        Concavity exponent of the utilisation-power curve.
    """

    idle_watts: float
    max_watts: float
    gamma: float = 0.9

    def __post_init__(self) -> None:
        if self.idle_watts < 0:
            raise ValueError("idle power must be >= 0")
        if self.max_watts < self.idle_watts:
            raise ValueError("max power must be >= idle power")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def power(self, utilisation: float) -> float:
        """Instantaneous power at a given utilisation (clamped to [0,1]).

        NaN utilisation is rejected at this boundary: ``min``/``max``
        silently propagate NaN (``min(max(nan, 0), 1)`` is ``nan``), so
        a sensor-NaN fault plan used to poison every downstream watt
        and Wh figure.  A NaN reading carries no information about the
        device's load, so it is treated as idle (utilisation 0) and
        counted on the ``power_nan_utilisation_total`` metric for
        observability.
        """
        if math.isnan(utilisation):
            from repro.obs.metrics import get_metrics

            get_metrics().counter(
                "power_nan_utilisation_total",
                "NaN utilisation readings zeroed by the power model",
            ).inc()
            utilisation = 0.0
        u = min(max(utilisation, 0.0), 1.0)
        return self.idle_watts + (self.max_watts - self.idle_watts) * u**self.gamma

    def energy(self, utilisation: float, duration_s: float) -> float:
        """Energy in joules over a constant-utilisation interval."""
        if duration_s < 0:
            raise ValueError("duration must be >= 0")
        return self.power(utilisation) * duration_s


#: Calibrated idle fraction of max power, per device family.  GPU idle
#: draw is typically 15-25 % of TDP; the GH200 package idles higher
#: because the counter includes the Grace CPU; IPUs idle low.
_IDLE_FRACTION = {
    Vendor.NVIDIA: 0.18,
    Vendor.AMD: 0.22,
    Vendor.GRAPHCORE: 0.35,
}

#: Idle fraction for accelerators whose vendor has no calibrated entry
#: (user-registered custom systems, :mod:`repro.hardware.custom`).  The
#: middle of the observed GPU range; pass ``idle_fraction=`` to
#: :func:`power_model_for_device` to override per device.
DEFAULT_IDLE_FRACTION = 0.20

#: Calibrated achievable fraction of TDP at full training load.  PCIe
#: cards run pinned at their cap (1.0); SXM/OAM parts have headroom.
_CAP_FRACTION_BY_FORM = {
    "PCIe": 0.98,
    "SXM4": 0.93,
    "SXM5": 0.85,
    "superchip": 0.90,
    "OAM": 0.80,
    "M2000": 0.85,
}


def power_model_for_device(
    spec: AcceleratorSpec,
    *,
    package_tdp_watts: float | None = None,
    host_share_watts: float = 0.0,
    cap_watts: float | None = None,
    idle_fraction: float | None = None,
) -> PowerModel:
    """Build the calibrated power model of one *logical* device.

    Parameters
    ----------
    spec:
        The accelerator package spec.
    package_tdp_watts:
        Override for the per-package TDP (Table I's "TDP / device"
        differs per node for GH200); defaults to the spec TDP.
    host_share_watts:
        Extra constant draw attributed to the device by package-level
        counters (the Grace CPU share on GH200 superchips).
    cap_watts:
        Enforced power cap per logical device (``nvidia-smi -pl``
        style, see :mod:`repro.power.dvfs`).  A capped device
        saturates at the cap instead of its calibrated ``max_watts``;
        the host share sits outside the device cap, as package-level
        counters observe.
    idle_fraction:
        Idle draw as a fraction of max power.  Defaults to the
        vendor's calibrated entry; custom-vendor accelerators without
        one must pass a value (:data:`DEFAULT_IDLE_FRACTION` is the
        documented general-purpose fallback).

    Raises
    ------
    ConfigError
        When ``spec.vendor`` has no calibrated idle fraction and
        ``idle_fraction`` was not given.
    """
    tdp = package_tdp_watts if package_tdp_watts is not None else spec.tdp_watts
    per_logical = tdp / spec.logical_devices
    cap = _CAP_FRACTION_BY_FORM.get(spec.form_factor, 0.90)
    if idle_fraction is None:
        try:
            idle_fraction = _IDLE_FRACTION[spec.vendor]
        except KeyError:
            known = ", ".join(sorted(v.value for v in _IDLE_FRACTION))
            raise ConfigError(
                f"no calibrated idle power fraction for vendor "
                f"{getattr(spec.vendor, 'value', spec.vendor)!r} "
                f"(accelerator {spec.name!r}); known vendors: {known}. "
                f"Pass idle_fraction= explicitly — DEFAULT_IDLE_FRACTION "
                f"({DEFAULT_IDLE_FRACTION}) is the documented fallback "
                f"for custom devices."
            ) from None
    device_max_w = per_logical * cap
    if cap_watts is not None:
        if cap_watts <= 0:
            raise ConfigError(f"power cap must be positive, got {cap_watts}")
        device_max_w = min(device_max_w, cap_watts)
    max_w = device_max_w + host_share_watts
    idle_w = per_logical * idle_fraction + host_share_watts * 0.5
    # A very low cap can sit below the calibrated idle draw; the device
    # then pins at the cap regardless of load.
    idle_w = min(idle_w, max_w)
    gamma = 0.85 if spec.kind is AcceleratorKind.IPU else 0.9
    return PowerModel(idle_watts=idle_w, max_watts=max_w, gamma=gamma)


def power_model_for_node(node: NodeSpec) -> PowerModel:
    """Build the power model every logical device of ``node`` shares.

    Superchip devices get the Grace host share folded into their model,
    because the paper's GH200 package counter includes the CPU.  A node
    carrying ``power_cap_watts`` (built via
    :func:`repro.power.dvfs.apply_power_cap`) gets a model that
    saturates at the cap instead of the calibrated max.
    """
    host_share = 0.0
    if node.accelerator.form_factor == "superchip":
        # The GH200 hwmon CPU rail reads ~60-90 W under load;
        # attribute 30 % of the Grace TDP as measurable host share.
        host_share = node.cpu.tdp_watts * 0.3 / node.accelerator.logical_devices
    return power_model_for_device(
        node.accelerator,
        package_tdp_watts=node.package_tdp_watts,
        host_share_watts=host_share,
        cap_watts=getattr(node, "power_cap_watts", None),
    )

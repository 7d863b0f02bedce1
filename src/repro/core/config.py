"""Benchmark configurations for the two CARAML workloads.

These dataclasses capture exactly the knobs the paper's JUBE scripts
expose: system tag, model size, global batch size, micro batch size,
AMD GCD-vs-GPU variant, synthetic-data toggle, and run duration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.node import NodeSpec
from repro.hardware.systems import get_system
from repro.models.parallelism import ParallelLayout, suggest_layout
from repro.models.resnet import CNN_PRESETS
from repro.models.transformer import GPT_PRESETS, get_gpt_preset
from repro.simcluster.affinity import BindingPolicy


def capped_node(system: str, power_cap_watts: float) -> NodeSpec:
    """System tag → node spec, derated through the DVFS model if capped.

    A cap of 0 means "uncapped" (the sweep-friendly sentinel: campaign
    axes are strings, so ``power_cap=0`` is the no-cap baseline point);
    a negative cap is an error.
    """
    if power_cap_watts < 0:
        raise ConfigError(
            f"power cap must be >= 0 (0 = uncapped), got {power_cap_watts}"
        )
    node = get_system(system)
    if power_cap_watts > 0:
        from repro.power.dvfs import apply_power_cap

        node = apply_power_cap(node, power_cap_watts)
    return node


class AMDVariant(str, enum.Enum):
    """The two MI250 reporting variants of the paper (§IV-A/B).

    For the LLM benchmark: ``GCD`` = 4 GCDs (2 MCMs) with DP 4;
    ``GPU`` = all 8 GCDs (4 MCMs) with DP 8.  For ResNet50: ``GCD`` =
    one GCD without parallelism; ``GPU`` = one MCM (2 GCDs) with DP 2.
    """

    GCD = "gcd"
    GPU = "gpu"


@dataclass(frozen=True)
class LLMBenchmarkConfig:
    """One LLM-training benchmark invocation."""

    system: str
    model_size: str = "800M"
    global_batch_size: int = 256
    micro_batch_size: int = 4
    exit_duration_s: float = 120.0
    amd_variant: AMDVariant = AMDVariant.GCD
    synthetic_data: bool = False
    nodes: int = 1
    power_cap_watts: float = 0.0  # 0 = uncapped (run at TDP)

    def __post_init__(self) -> None:
        object.__setattr__(self, "amd_variant", AMDVariant(self.amd_variant))
        if self.model_size not in GPT_PRESETS:
            raise ConfigError(
                f"unknown model size {self.model_size!r}; "
                f"valid: {', '.join(GPT_PRESETS)}"
            )
        if self.global_batch_size <= 0 or self.micro_batch_size <= 0:
            raise ConfigError("batch sizes must be positive")
        if self.exit_duration_s <= 0:
            raise ConfigError("exit duration must be positive")
        if self.nodes < 1:
            raise ConfigError("nodes must be >= 1")
        if self.power_cap_watts < 0:
            raise ConfigError("power cap must be >= 0 (0 = uncapped)")

    @property
    def node(self) -> NodeSpec:
        """The configured system's node spec (derated if capped)."""
        return capped_node(self.system, self.power_cap_watts)

    def device_count(self) -> int:
        """Devices the run occupies (per the paper's conventions)."""
        node = self.node
        if node.is_ipu_pod:
            return node.logical_devices_per_node  # pipeline over the POD4
        if node.accelerator.logical_devices == 2:  # MI250
            per_node = 4 if self.amd_variant is AMDVariant.GCD else 8
            return per_node * self.nodes
        return node.logical_devices_per_node * self.nodes

    def layout(self) -> ParallelLayout:
        """Parallel layout: pure DP for 800M, 3D for 13B/175B."""
        node = self.node
        if node.is_ipu_pod:
            raise ConfigError("IPU runs use pipeline stages, not GPU layouts")
        devices = self.device_count()
        model = get_gpt_preset(self.model_size)
        if self.model_size in ("13B", "175B"):
            return suggest_layout(
                model.parameters, node.device_memory_bytes, devices
            )
        return ParallelLayout(dp=devices)


@dataclass(frozen=True)
class ResNetBenchmarkConfig:
    """One ResNet50-training benchmark invocation."""

    system: str
    model: str = "resnet50"
    global_batch_size: int = 256
    devices: int = 1
    amd_variant: AMDVariant = AMDVariant.GCD
    synthetic_data: bool = False
    iterations: int = 100
    nodes: int = 1
    binding: BindingPolicy = BindingPolicy.GPU_AFFINE
    power_cap_watts: float = 0.0  # 0 = uncapped (run at TDP)

    def __post_init__(self) -> None:
        object.__setattr__(self, "amd_variant", AMDVariant(self.amd_variant))
        object.__setattr__(self, "binding", BindingPolicy(self.binding))
        if self.model not in CNN_PRESETS:
            raise ConfigError(
                f"unknown CNN model {self.model!r}; valid: {', '.join(CNN_PRESETS)}"
            )
        if self.global_batch_size <= 0:
            raise ConfigError("global batch size must be positive")
        if self.devices < 1 or self.nodes < 1 or self.iterations < 1:
            raise ConfigError("devices, nodes and iterations must be >= 1")
        if self.power_cap_watts < 0:
            raise ConfigError("power cap must be >= 0 (0 = uncapped)")

    @property
    def node(self) -> NodeSpec:
        """The configured system's node spec (derated if capped)."""
        return capped_node(self.system, self.power_cap_watts)

    def effective_devices(self) -> int:
        """Device count after applying the AMD variant convention."""
        node = self.node
        if node.accelerator.logical_devices == 2 and self.devices == 1:
            # Figure 3's single-"device" AMD runs: GCD = 1 die,
            # GPU = the whole MCM (2 dies, DP 2).
            return 1 if self.amd_variant is AMDVariant.GCD else 2
        return self.devices

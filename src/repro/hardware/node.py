"""Node specifications combining accelerators, CPUs and links (Table I)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareError
from repro.hardware.accelerator import AcceleratorSpec, AcceleratorKind
from repro.hardware.cpu import CPUSpec
from repro.hardware.interconnect import LinkSpec, LinkTechnology


@dataclass(frozen=True)
class NodeSpec:
    """One node configuration from the paper's Table I.

    Attributes
    ----------
    name:
        Human-readable platform name, e.g. ``"GH200 JEDI"``.
    jube_tag:
        The tag CARAML's JUBE scripts use to select the platform
        (Table I bottom row): JEDI, GH200, H100, WAIH100, MI250, GC200,
        A100.
    accelerator / accelerators_per_node:
        Device spec and count of *physical packages* per node (the
        MI250 node has 4 MCM packages = 8 logical GPUs).
    cpu / cpu_sockets:
        Host CPU and socket count.
    cpu_memory_bytes:
        Total host DRAM.
    cpu_accel_link / accel_accel_link / internode_link:
        The three link classes of Table I.  ``internode_link`` may be
        ``LinkTechnology.NONE`` for single-node evaluation platforms.
    package_tdp_watts:
        TDP per device package as reported in Table I ("TDP / device");
        for GH200 this includes the Grace CPU.
    max_nodes:
        How many such nodes were available to the paper's experiments
        (1 for evaluation-platform systems without an interconnect).
    power_cap_watts:
        Enforced per-logical-device power cap (``nvidia-smi -pl``
        style), or ``None`` when the device runs uncapped at TDP.
        Capped nodes are built with :func:`repro.power.dvfs.apply_power_cap`,
        which also derates the accelerator's achievable FLOP/s and
        memory bandwidth through the calibrated frequency model.
    """

    name: str
    jube_tag: str
    accelerator: AcceleratorSpec
    accelerators_per_node: int
    cpu: CPUSpec
    cpu_sockets: int
    cpu_memory_bytes: int
    cpu_accel_link: LinkSpec
    accel_accel_link: LinkSpec
    internode_link: LinkSpec
    package_tdp_watts: float
    max_nodes: int = 1
    power_cap_watts: float | None = None

    def __post_init__(self) -> None:
        if self.accelerators_per_node <= 0:
            raise HardwareError(f"{self.name}: needs at least one accelerator")
        if self.power_cap_watts is not None and self.power_cap_watts <= 0:
            raise HardwareError(
                f"{self.name}: power cap must be positive, got "
                f"{self.power_cap_watts}"
            )
        if self.cpu_memory_bytes <= 0:
            raise HardwareError(f"{self.name}: CPU memory must be positive")
        if self.max_nodes < 1:
            raise HardwareError(f"{self.name}: max_nodes must be >= 1")
        if (
            self.max_nodes > 1
            and self.internode_link.technology is LinkTechnology.NONE
        ):
            raise HardwareError(
                f"{self.name}: multi-node platform requires an inter-node link"
            )

    # -- derived counts ------------------------------------------------

    @property
    def logical_devices_per_node(self) -> int:
        """Schedulable devices per node (8 for the MI250 node)."""
        return self.accelerators_per_node * self.accelerator.logical_devices

    @property
    def total_logical_devices(self) -> int:
        """Logical devices across all available nodes."""
        return self.logical_devices_per_node * self.max_nodes

    @property
    def cpu_cores_per_node(self) -> int:
        """Host cores per node across all sockets."""
        return self.cpu.cores * self.cpu_sockets

    @property
    def cpu_memory_per_device(self) -> float:
        """Host DRAM available per logical device (bytes).

        This drives the data-loading model: the paper attributes the
        GH200 (JRDC) vs JEDI large-batch ResNet gap to 4x more CPU
        memory per GPU.
        """
        return self.cpu_memory_bytes / self.logical_devices_per_node

    @property
    def is_ipu_pod(self) -> bool:
        """True for dataflow (Graphcore) platforms."""
        return self.accelerator.kind is AcceleratorKind.IPU

    @property
    def device_memory_bytes(self) -> int:
        """Memory of one logical device."""
        return self.accelerator.memory_bytes // self.accelerator.logical_devices

    @property
    def device_peak_flops(self) -> float:
        """Peak FP16 FLOP/s of one logical device."""
        return self.accelerator.peak_fp16_flops / self.accelerator.logical_devices

    @property
    def device_memory_bandwidth(self) -> float:
        """Memory bandwidth of one logical device (half the MCM for
        dual-die MI250 packages)."""
        return self.accelerator.memory_bandwidth / self.accelerator.logical_devices

    @property
    def device_tdp_watts(self) -> float:
        """Package TDP attributed to one logical device."""
        return self.package_tdp_watts / self.accelerator.logical_devices

    def describe(self) -> str:
        """Multi-line Table-I-style description of the node."""
        lines = [
            f"{self.name} (tag {self.jube_tag})",
            f"  {self.accelerators_per_node}x {self.accelerator.describe()}",
            f"  {self.cpu_sockets}x {self.cpu.cores}c {self.cpu.name}, "
            f"{self.cpu_memory_bytes / 1e9:.0f} GB host memory",
            f"  CPU-Acc: {self.cpu_accel_link.technology.value} "
            f"{self.cpu_accel_link.bandwidth / 1e9:.0f} GB/s",
            f"  Acc-Acc: {self.accel_accel_link.technology.value} "
            f"{self.accel_accel_link.bandwidth / 1e9:.0f} GB/s",
            f"  Inter-node: {self.internode_link.technology.value}",
            f"  TDP/device: {self.package_tdp_watts:.0f} W",
        ]
        if self.power_cap_watts is not None:
            lines.append(
                f"  Power cap/device: {self.power_cap_watts:.0f} W"
            )
        return "\n".join(lines)

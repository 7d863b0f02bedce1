"""Accelerator specifications (the paper's Figure 1).

Each :class:`AcceleratorSpec` captures the published, vendor-quoted
characteristics of one accelerator: peak FP16 throughput (dense, i.e.
without sparsity, as the paper quotes them), on-device memory capacity
and bandwidth, thermal design power, and the compute-unit organisation.

The catalog deliberately contains *only* information that is public and
stated in the paper or the corresponding datasheets; everything
behavioural (achievable efficiency, idle power fractions, saturation
behaviour) lives in :mod:`repro.engine.calibration` so that the
separation between "spec" and "calibrated model" stays explicit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import HardwareError
from repro.units import gb, gbps, mb, tflops


class Vendor(str, enum.Enum):
    """Accelerator vendor, used to select jpwr backends and engines."""

    NVIDIA = "nvidia"
    AMD = "amd"
    GRAPHCORE = "graphcore"


class AcceleratorKind(str, enum.Enum):
    """Architectural family in Flynn's-taxonomy terms (paper §II-C)."""

    GPU = "gpu"  # SIMD, shared memory hierarchy
    IPU = "ipu"  # MIMD, distributed per-core memory (dataflow)


@dataclass(frozen=True)
class AcceleratorSpec:
    """Static description of a single accelerator device.

    Attributes
    ----------
    name:
        Catalog key, e.g. ``"A100-SXM4"``.
    vendor / kind:
        Vendor and architectural family.
    compute_units:
        Number of SMs (NVIDIA), CUs (AMD, per GCD), or IPU cores
        (Graphcore).
    cores_per_unit:
        CUDA cores per SM / stream processors per CU; 1 for IPU tiles.
    matrix_units_per_unit:
        Tensor Cores per SM / Matrix Cores per CU; 0 for IPU (AMP units
        are counted inside the core).
    peak_fp16_flops:
        Dense FP16 peak in FLOP/s (no sparsity), as quoted in Fig. 1.
    memory_bytes:
        On-device memory (HBM for GPUs, distributed SRAM for the IPU).
    memory_bandwidth:
        Aggregate device memory bandwidth in bytes/s.
    tdp_watts:
        Thermal design power of the device.  For GH200 the package TDP
        (CPU+GPU) is stored on the node, not here.
    form_factor:
        "SXM4", "PCIe", "OAM", "superchip", "M2000", ... informational.
    sram_per_core_bytes:
        For the IPU: per-core scratch memory; drives the micro-batch
        ceiling modelled in :mod:`repro.engine.poplar`.
    logical_devices:
        How many schedulable devices the OS sees per physical package
        (2 for the MI250 MCM with two GCDs, else 1).
    """

    name: str
    vendor: Vendor
    kind: AcceleratorKind
    compute_units: int
    cores_per_unit: int
    matrix_units_per_unit: int
    peak_fp16_flops: float
    memory_bytes: int
    memory_bandwidth: float
    tdp_watts: float
    form_factor: str = ""
    sram_per_core_bytes: int = 0
    logical_devices: int = 1

    def __post_init__(self) -> None:
        if self.peak_fp16_flops <= 0:
            raise HardwareError(f"{self.name}: peak FLOP/s must be positive")
        if self.memory_bytes <= 0:
            raise HardwareError(f"{self.name}: memory must be positive")
        if self.tdp_watts <= 0:
            raise HardwareError(f"{self.name}: TDP must be positive")
        if self.compute_units <= 0:
            raise HardwareError(f"{self.name}: compute units must be positive")

    def describe(self) -> str:
        """One-line human-readable summary (Fig. 1 style)."""
        return (
            f"{self.name}: {self.compute_units} units x {self.cores_per_unit} cores, "
            f"{self.peak_fp16_flops / 1e12:.1f} TFLOP/s FP16, "
            f"{self.memory_bytes / 1e9:.0f} GB @ {self.memory_bandwidth / 1e9:.0f} GB/s, "
            f"TDP {self.tdp_watts:.0f} W"
        )


def _make_catalog() -> dict[str, AcceleratorSpec]:
    """Build the Fig. 1 catalog.

    Memory bandwidths are from the public datasheets (the paper quotes
    capacity only): A100-40GB 1.56 TB/s, H100-PCIe 2.0 TB/s, H100-SXM5
    2.4 TB/s (94 GB variant 2.4 TB/s), GH200 4 TB/s (paper), MI250
    3.28 TB/s per MCM, GC200 47.5 TB/s aggregate SRAM.
    """
    specs = [
        AcceleratorSpec(
            name="A100-SXM4",
            vendor=Vendor.NVIDIA,
            kind=AcceleratorKind.GPU,
            compute_units=108,
            cores_per_unit=64,
            matrix_units_per_unit=4,
            peak_fp16_flops=tflops(312),
            memory_bytes=gb(40),
            memory_bandwidth=gbps(1555),
            tdp_watts=400.0,
            form_factor="SXM4",
        ),
        AcceleratorSpec(
            name="H100-PCIe",
            vendor=Vendor.NVIDIA,
            kind=AcceleratorKind.GPU,
            compute_units=114,
            cores_per_unit=128,
            matrix_units_per_unit=4,
            peak_fp16_flops=tflops(756),
            memory_bytes=gb(80),
            memory_bandwidth=gbps(2000),
            tdp_watts=350.0,
            form_factor="PCIe",
        ),
        AcceleratorSpec(
            name="H100-SXM5",
            vendor=Vendor.NVIDIA,
            kind=AcceleratorKind.GPU,
            compute_units=132,
            cores_per_unit=128,
            matrix_units_per_unit=4,
            peak_fp16_flops=tflops(990),
            memory_bytes=gb(94),
            memory_bandwidth=gbps(2400),
            tdp_watts=700.0,
            form_factor="SXM5",
        ),
        # The Hopper die inside the GH200 superchip.  The paper's TDP of
        # 680/700 W is for the full package and is stored on the node.
        AcceleratorSpec(
            name="GH200-H100",
            vendor=Vendor.NVIDIA,
            kind=AcceleratorKind.GPU,
            compute_units=132,
            cores_per_unit=128,
            matrix_units_per_unit=4,
            peak_fp16_flops=tflops(990),
            memory_bytes=gb(96),
            memory_bandwidth=gbps(4000),
            tdp_watts=700.0,
            form_factor="superchip",
        ),
        # One MI250 MCM: two GCDs, each seen as a GPU by the OS.
        AcceleratorSpec(
            name="MI250",
            vendor=Vendor.AMD,
            kind=AcceleratorKind.GPU,
            compute_units=2 * 104,
            cores_per_unit=64,
            matrix_units_per_unit=4,
            peak_fp16_flops=tflops(362.1),
            memory_bytes=gb(128),
            memory_bandwidth=gbps(3277),
            tdp_watts=560.0,
            form_factor="OAM",
            logical_devices=2,
        ),
        AcceleratorSpec(
            name="GC200",
            vendor=Vendor.GRAPHCORE,
            kind=AcceleratorKind.IPU,
            compute_units=1472,
            cores_per_unit=1,
            matrix_units_per_unit=0,
            peak_fp16_flops=tflops(250),
            memory_bytes=mb(900),
            memory_bandwidth=gbps(47500),
            tdp_watts=300.0,
            form_factor="M2000",
            sram_per_core_bytes=mb(900) // 1472,
        ),
    ]
    return {s.name: s for s in specs}


ACCELERATORS: dict[str, AcceleratorSpec] = _make_catalog()


def get_accelerator(name: str) -> AcceleratorSpec:
    """Look up an accelerator by catalog name.

    Raises
    ------
    HardwareError
        If the name is unknown; the message lists valid names.
    """
    try:
        return ACCELERATORS[name]
    except KeyError:
        valid = ", ".join(sorted(ACCELERATORS))
        raise HardwareError(f"unknown accelerator {name!r}; valid: {valid}") from None

"""Synthetic microbenchmarks (paper §II-D context).

The paper situates CARAML against "synthetic benchmarks, which
concentrate on specific yet commonly used compute patterns" [20].
These three microbenchmarks provide exactly that layer for the
simulated systems, and double as a sanity check that the application
benchmarks stay below the machine roofline:

* **GEMM** -- dense matrix multiply at a given size (tensor-core
  pattern), reporting achieved TFLOP/s via the roofline,
* **STREAM triad** -- bandwidth-bound a = b + s*c, reporting GB/s,
* **all-reduce bus bandwidth** -- the nccl-tests "busbw" metric for
  the node's accelerator fabric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.node import NodeSpec
from repro.simcluster.nccl import allreduce_time

#: Fraction of peak a well-tuned large GEMM achieves (cuBLAS-class).
GEMM_PEAK_FRACTION = 0.85
#: GEMM efficiency half-point in operand dimension (small GEMMs are
#: launch/latency bound).
GEMM_HALF_DIM = 768.0
#: Fraction of theoretical DRAM bandwidth STREAM achieves.
STREAM_PEAK_FRACTION = 0.82
#: Bytes moved per STREAM-triad element (two loads + one store, fp64).
STREAM_BYTES_PER_ELEMENT = 24


@dataclass(frozen=True)
class MicrobenchResult:
    """One microbenchmark measurement on one system."""

    system: str
    kernel: str
    size: int
    value: float
    unit: str

    def describe(self) -> str:
        """One-line report."""
        return f"{self.system} {self.kernel}[{self.size}]: {self.value:.1f} {self.unit}"


def gemm_tflops(node: NodeSpec, dim: int) -> MicrobenchResult:
    """Achieved TFLOP/s of a dim x dim x dim FP16 GEMM on one device."""
    if dim < 1:
        raise ConfigError("GEMM dimension must be >= 1")
    efficiency = GEMM_PEAK_FRACTION * dim / (dim + GEMM_HALF_DIM)
    flops = 2.0 * dim**3
    # Roofline: the GEMM also has to stream 3 dim^2 operands.
    compute_time = flops / (node.device_peak_flops * efficiency)
    memory_time = (
        3.0 * dim * dim * 2 / (node.device_memory_bandwidth * STREAM_PEAK_FRACTION)
    )
    elapsed = max(compute_time, memory_time)
    return MicrobenchResult(
        system=node.jube_tag,
        kernel="gemm-fp16",
        size=dim,
        value=flops / elapsed / 1e12,
        unit="TFLOP/s",
    )


def stream_triad_gbs(node: NodeSpec, elements: int) -> MicrobenchResult:
    """Achieved GB/s of a STREAM triad of ``elements`` fp64 values."""
    if elements < 1:
        raise ConfigError("STREAM size must be >= 1")
    bytes_moved = elements * STREAM_BYTES_PER_ELEMENT
    # Small arrays stay latency-bound; saturation over ~64 MB.
    saturation = bytes_moved / (bytes_moved + 64e6)
    bandwidth = node.device_memory_bandwidth * STREAM_PEAK_FRACTION * saturation
    return MicrobenchResult(
        system=node.jube_tag,
        kernel="stream-triad",
        size=elements,
        value=bandwidth / 1e9,
        unit="GB/s",
    )


def allreduce_busbw_gbs(
    node: NodeSpec, message_bytes: int, ranks: int | None = None
) -> MicrobenchResult:
    """nccl-tests-style bus bandwidth of an intra-node all-reduce.

    busbw = algbw * 2(p-1)/p, where algbw = bytes / time -- the metric
    is link-utilisation-normalised so it is flat in the rank count on a
    non-blocking fabric.
    """
    if message_bytes < 1:
        raise ConfigError("message size must be >= 1")
    p = ranks if ranks is not None else node.logical_devices_per_node
    if p < 2:
        raise ConfigError("all-reduce needs at least 2 ranks")
    if p > node.logical_devices_per_node:
        raise ConfigError(f"{node.name} has only {node.logical_devices_per_node} devices")
    elapsed = allreduce_time(message_bytes, p, node.accel_accel_link)
    algbw = message_bytes / elapsed
    busbw = algbw * 2 * (p - 1) / p
    return MicrobenchResult(
        system=node.jube_tag,
        kernel="allreduce-busbw",
        size=message_bytes,
        value=busbw / 1e9,
        unit="GB/s",
    )

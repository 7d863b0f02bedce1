"""CPU binding and NUMA affinity effects (paper §V-C).

The paper reports that "the critical impact of correct CPU binding,
optimal number of threads, and GPU affinity on performance for each
system was carefully studied" and that a GPU-centric layout (one task
per GPU, bound to the NUMA domain with affinity to it, masks open
enough for NCCL helper threads) is what CARAML uses.

This module quantifies those effects as a multiplicative *host
bandwidth penalty*: binding a device's task to a remote NUMA domain
degrades host-to-device transfers by a hop-dependent factor; letting
Slurm scatter the task across all domains degrades them by the average
factor; and masks too narrow for NCCL's helper thread add a fixed
collective-latency penalty.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.node import NodeSpec
from repro.hardware.topology import device_home_numa, numa_distance_matrix, numa_hops


class BindingPolicy(str, enum.Enum):
    """How host processes are bound to cores."""

    #: One task per GPU bound to the GPU's home NUMA domain, mask wide
    #: enough for NCCL helpers -- CARAML's tuned configuration.
    GPU_AFFINE = "gpu-affine"
    #: No binding: the task floats over all domains.
    NONE = "none"
    #: Bound, but to the wrong (fixed first) domain for every device.
    WRONG_NUMA = "wrong-numa"
    #: Bound to the right domain but with a mask too narrow for the
    #: NCCL helper thread (§V-C: "masks that are open enough").
    TOO_NARROW = "too-narrow"


#: Host bandwidth multiplier per NUMA hop between task and device home.
_HOP_PENALTY = 0.85


@dataclass(frozen=True)
class AffinityEffect:
    """Quantified effect of a binding policy on one device's task."""

    host_bandwidth_factor: float  # multiplies CPU->device bandwidth
    collective_latency_factor: float  # multiplies collective latencies

    def __post_init__(self) -> None:
        if not 0 < self.host_bandwidth_factor <= 1:
            raise ValueError("host bandwidth factor must be in (0,1]")
        if self.collective_latency_factor < 1:
            raise ValueError("collective latency factor must be >= 1")


def affinity_penalty(
    node: NodeSpec, device_index: int, policy: BindingPolicy
) -> AffinityEffect:
    """Affinity effect for one device's host task under a policy.

    GPU-affine binding is the 1.0 baseline.  The remote-domain penalty
    compounds per hop; unbound tasks see the average over all domains.
    """
    home = device_home_numa(node, device_index)

    if policy is BindingPolicy.GPU_AFFINE:
        return AffinityEffect(1.0, 1.0)

    if policy is BindingPolicy.WRONG_NUMA:
        # Every task pinned to domain 0 regardless of its device.
        hops = numa_hops(node, 0, home)
        return AffinityEffect(_HOP_PENALTY**hops, 1.0)

    if policy is BindingPolicy.NONE:
        # Unbound: memory pages and the task wander; average penalty
        # over all domains the scheduler may run it on.
        factors = [_HOP_PENALTY**hops for hops in numa_distance_matrix(node)[home]]
        return AffinityEffect(sum(factors) / len(factors), 1.0)

    if policy is BindingPolicy.TOO_NARROW:
        # Right domain, but NCCL's helper thread contends with compute:
        # collectives see inflated latency, host bandwidth is fine.
        return AffinityEffect(1.0, 2.0)

    raise ValueError(f"unknown binding policy {policy!r}")


def recommended_slurm_options(node: NodeSpec) -> dict[str, str]:
    """The §V-C Slurm options for a GPU-affine layout on this node.

    E.g. JEDI: ``--ntasks=4 --cpus-per-task=72 --gpus-per-task=1``.
    EPYC nodes additionally need explicit ``--cpu-bind`` masks because
    not all chiplets have device affinity.
    """
    n_dev = node.logical_devices_per_node
    cores_per_task = node.cpu_cores_per_node // n_dev
    options = {
        "--ntasks": str(n_dev),
        "--cpus-per-task": str(cores_per_task),
        "--gpus-per-task": "1",
    }
    if node.cpu.numa_domains > 1:
        masks = []
        n_numa = node.cpu.numa_domains * node.cpu_sockets
        cores_per_domain = node.cpu_cores_per_node // n_numa
        for dev in range(n_dev):
            domain = device_home_numa(node, dev)
            lo = domain * cores_per_domain
            mask = 0
            for core in range(lo, lo + cores_per_domain):
                mask |= 1 << core
            masks.append(f"0x{mask:x}")
        options["--cpu-bind"] = "mask_cpu:" + ",".join(masks)
    return options

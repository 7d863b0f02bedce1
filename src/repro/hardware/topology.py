"""Intra-node NUMA distance modelling.

The paper's §V-C describes why CPU binding and GPU affinity matter:
EPYC nodes expose several NUMA domains, only some of which have direct
affinity to a GPU; binding a GPU's host process to a remote domain
costs host-to-device bandwidth.  This module places devices on their
home NUMA domains and gives the hop distances between domains that the
affinity model in :mod:`repro.simcluster.affinity` uses: one hop
within a socket, two across sockets.
"""

from __future__ import annotations

from repro.hardware.node import NodeSpec


def device_home_numa(node: NodeSpec, device_index: int) -> int:
    """NUMA domain index that has direct affinity to a device.

    Devices are distributed round-robin over the domains, mirroring the
    GPU-centric affinity layout of §V-C: on EPYC-7742 (8 domains per
    socket, 4 GPUs) most domains end up GPU-less, as on the real machine.
    """
    n_numa = node.cpu.numa_domains * node.cpu_sockets
    if device_index < 0 or device_index >= node.logical_devices_per_node:
        raise ValueError(
            f"device index {device_index} out of range for {node.name} "
            f"({node.logical_devices_per_node} devices)"
        )
    return device_index % n_numa


def numa_hops(node: NodeSpec, domain_a: int, domain_b: int) -> int:
    """Hop count between two NUMA domains of a node.

    0 to itself, 1 within a socket, 2 across sockets.
    """
    if domain_a == domain_b:
        return 0
    per_socket = node.cpu.numa_domains
    return 1 if domain_a // per_socket == domain_b // per_socket else 2


def numa_distance_matrix(node: NodeSpec) -> list[list[int]]:
    """Hop-count distance matrix between all NUMA domains of a node."""
    n_numa = node.cpu.numa_domains * node.cpu_sockets
    return [[numa_hops(node, a, b) for b in range(n_numa)] for a in range(n_numa)]

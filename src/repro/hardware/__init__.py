"""Hardware catalog: accelerators, CPUs, interconnects, nodes, systems.

The classes here encode the published specifications from the paper's
Figure 1 (accelerator list) and Table I (node configurations).  They are
pure data plus derived-quantity helpers; the performance and power
*behaviour* built on top of them lives in :mod:`repro.engine` and
:mod:`repro.power`.
"""

from repro.hardware.accelerator import (
    AcceleratorSpec,
    AcceleratorKind,
    Vendor,
    ACCELERATORS,
    get_accelerator,
)
from repro.hardware.cpu import CPUSpec, CPUS, get_cpu
from repro.hardware.interconnect import LinkSpec, LinkTechnology, LINKS, get_link
from repro.hardware.node import NodeSpec
from repro.hardware.systems import SYSTEMS, SYSTEM_TAGS, get_system
from repro.hardware.memory import MemoryPool, MemoryBudget
from repro.hardware.topology import numa_distance_matrix

__all__ = [
    "AcceleratorSpec",
    "AcceleratorKind",
    "Vendor",
    "ACCELERATORS",
    "get_accelerator",
    "CPUSpec",
    "CPUS",
    "get_cpu",
    "LinkSpec",
    "LinkTechnology",
    "LINKS",
    "get_link",
    "NodeSpec",
    "SYSTEMS",
    "SYSTEM_TAGS",
    "get_system",
    "MemoryPool",
    "MemoryBudget",
    "numa_distance_matrix",
]

"""The seven evaluated systems of the paper's Table I.

Every system is registered under its JUBE tag (Table I bottom row);
:func:`get_system` is the single lookup point used by the benchmarks,
the ``caraml`` CLI and the analysis layer.
"""

from __future__ import annotations

from repro.errors import UnknownSystemError
from repro.hardware.accelerator import get_accelerator
from repro.hardware.cpu import get_cpu
from repro.hardware.interconnect import LinkTechnology, get_link, scaled
from repro.hardware.node import NodeSpec
from repro.units import gb


def _make_systems() -> dict[str, NodeSpec]:
    none_link = get_link(LinkTechnology.NONE)

    systems = [
        # JEDI: 4x GH200-120GB per node, NVLink-C2C, NVLink4, 4x IB NDR.
        NodeSpec(
            name="GH200 JEDI",
            jube_tag="JEDI",
            accelerator=get_accelerator("GH200-H100"),
            accelerators_per_node=4,
            cpu=get_cpu("Grace"),
            cpu_sockets=4,
            cpu_memory_bytes=4 * gb(120),
            cpu_accel_link=get_link(LinkTechnology.NVLINK_C2C),
            accel_accel_link=get_link(LinkTechnology.NVLINK4),
            internode_link=scaled(get_link(LinkTechnology.IB_NDR200), 4),
            package_tdp_watts=680.0,
            max_nodes=4,
        ),
        # JURECA evaluation platform GH200: a single superchip per node.
        NodeSpec(
            name="GH200 JURECA",
            jube_tag="GH200",
            accelerator=get_accelerator("GH200-H100"),
            accelerators_per_node=1,
            cpu=get_cpu("Grace"),
            cpu_sockets=1,
            cpu_memory_bytes=gb(480),
            cpu_accel_link=get_link(LinkTechnology.NVLINK_C2C),
            accel_accel_link=none_link,
            internode_link=none_link,
            package_tdp_watts=700.0,
            max_nodes=1,
        ),
        # JURECA H100 PCIe node: pairs bridged by NVLink4 bridges.
        NodeSpec(
            name="H100 JURECA",
            jube_tag="H100",
            accelerator=get_accelerator("H100-PCIe"),
            accelerators_per_node=4,
            cpu=get_cpu("Xeon-8452Y"),
            cpu_sockets=2,
            cpu_memory_bytes=gb(512),
            cpu_accel_link=get_link(LinkTechnology.PCIE_GEN5),
            accel_accel_link=get_link(LinkTechnology.NVLINK4_BRIDGE),
            internode_link=none_link,
            package_tdp_watts=350.0,
            max_nodes=1,
        ),
        # WestAI H100 SXM5 node: NVLink4, 2x IB NDR.
        NodeSpec(
            name="H100 WestAI",
            jube_tag="WAIH100",
            accelerator=get_accelerator("H100-SXM5"),
            accelerators_per_node=4,
            cpu=get_cpu("Xeon-8462Y"),
            cpu_sockets=2,
            cpu_memory_bytes=gb(512),
            cpu_accel_link=get_link(LinkTechnology.PCIE_GEN5),
            accel_accel_link=get_link(LinkTechnology.NVLINK4),
            internode_link=scaled(get_link(LinkTechnology.IB_NDR), 2),
            package_tdp_watts=700.0,
            max_nodes=4,
        ),
        # JURECA MI200 node: 4 MI250 MCMs = 8 GCDs, Infinity Fabric.
        NodeSpec(
            name="MI200 JURECA",
            jube_tag="MI250",
            accelerator=get_accelerator("MI250"),
            accelerators_per_node=4,
            cpu=get_cpu("EPYC-7443"),
            cpu_sockets=2,
            cpu_memory_bytes=gb(512),
            cpu_accel_link=get_link(LinkTechnology.PCIE_GEN4),
            accel_accel_link=get_link(LinkTechnology.INFINITY_FABRIC),
            internode_link=scaled(get_link(LinkTechnology.IB_HDR), 2),
            package_tdp_watts=560.0,
            max_nodes=2,
        ),
        # JURECA IPU-M2000 POD4: 4 GC200 IPUs behind a host over PCIe4.
        NodeSpec(
            name="IPU-M2000 JURECA",
            jube_tag="GC200",
            accelerator=get_accelerator("GC200"),
            accelerators_per_node=4,
            cpu=get_cpu("EPYC-7413"),
            cpu_sockets=2,
            cpu_memory_bytes=gb(512),
            cpu_accel_link=get_link(LinkTechnology.PCIE_GEN4),
            accel_accel_link=get_link(LinkTechnology.IPU_LINK),
            internode_link=none_link,
            package_tdp_watts=300.0,
            max_nodes=1,
        ),
        # JURECA-DC A100 node: NVLink3, EPYC 7742, 2x IB HDR.
        NodeSpec(
            name="A100 JURECA",
            jube_tag="A100",
            accelerator=get_accelerator("A100-SXM4"),
            accelerators_per_node=4,
            cpu=get_cpu("EPYC-7742"),
            cpu_sockets=2,
            cpu_memory_bytes=gb(512),
            cpu_accel_link=get_link(LinkTechnology.PCIE_GEN4),
            accel_accel_link=get_link(LinkTechnology.NVLINK3),
            internode_link=scaled(get_link(LinkTechnology.IB_HDR), 2),
            package_tdp_watts=400.0,
            max_nodes=4,
        ),
    ]
    return {s.jube_tag: s for s in systems}


SYSTEMS: dict[str, NodeSpec] = _make_systems()

#: Tags in the order Table I lists the platforms.
SYSTEM_TAGS: tuple[str, ...] = (
    "JEDI",
    "GH200",
    "H100",
    "WAIH100",
    "MI250",
    "GC200",
    "A100",
)

def get_system(tag: str) -> NodeSpec:
    """Resolve a JUBE system tag to its node specification.

    Raises
    ------
    UnknownSystemError
        If the tag is not one of the Table I tags.
    """
    try:
        return SYSTEMS[tag]
    except KeyError:
        valid = ", ".join(SYSTEM_TAGS)
        raise UnknownSystemError(f"unknown system tag {tag!r}; valid: {valid}") from None

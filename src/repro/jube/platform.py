"""Platform definitions (JUBE's ``platform.xml`` equivalent).

"The job templates are populated from a system-specific configuration
file, platform.xml, making the approach system-agnostic" (paper
§III-A3).  Here a platform maps a Table I system tag onto the Slurm
partition backing it and the §V-C affinity options for job templates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.node import NodeSpec
from repro.hardware.systems import get_system
from repro.simcluster.affinity import recommended_slurm_options
from repro.simcluster.slurm import SlurmSimulator


@dataclass(frozen=True)
class Platform:
    """One system's scheduling configuration."""

    tag: str
    partition: str
    node: NodeSpec
    slurm_options: dict[str, str]


def platform_for(tag: str) -> Platform:
    """Build the platform definition of a Table I system."""
    node = get_system(tag)
    return Platform(
        tag=tag,
        partition=f"{tag.lower()}-partition",
        node=node,
        slurm_options=recommended_slurm_options(node),
    )


def build_scheduler(tags: list[str] | None = None) -> SlurmSimulator:
    """A Slurm simulator with one partition per requested system."""
    from repro.hardware.systems import SYSTEM_TAGS

    sim = SlurmSimulator()
    for tag in tags if tags is not None else SYSTEM_TAGS:
        platform = platform_for(tag)
        sim.add_partition(platform.partition, platform.node, platform.node.max_nodes)
    return sim

"""Cluster substrate: clock, scheduler, collectives, affinity, containers."""

from repro.simcluster.clock import VirtualClock
from repro.simcluster.nccl import (
    CollectiveModel,
    allreduce_time,
    allgather_time,
    reduce_scatter_time,
)
from repro.simcluster.slurm import SlurmSimulator, JobSpec, JobState, allocate_node
from repro.simcluster.affinity import BindingPolicy, affinity_penalty
from repro.simcluster.container import ContainerImage, ContainerRuntime, VENDOR_IMAGES
from repro.simcluster.network import ipoib_hostname, resolve_master_addr

__all__ = [
    "VirtualClock",
    "CollectiveModel",
    "allreduce_time",
    "allgather_time",
    "reduce_scatter_time",
    "SlurmSimulator",
    "JobSpec",
    "JobState",
    "allocate_node",
    "BindingPolicy",
    "affinity_penalty",
    "ContainerImage",
    "ContainerRuntime",
    "VENDOR_IMAGES",
    "ipoib_hostname",
    "resolve_master_addr",
]

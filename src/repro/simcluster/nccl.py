"""Collective communication cost models (NCCL/RCCL/GCL-style).

The models are the standard alpha-beta (latency-bandwidth) forms for
ring and tree algorithms.  Per-collective times are what the training
engines charge for gradient all-reduce (data parallelism / Horovod),
activation all-gather (tensor/sequence parallelism) and parameter
broadcast.

Conventions
-----------
* ``message_bytes`` is the full tensor size at every rank,
* ``link`` carries *bidirectional aggregate* bandwidth per device
  (Table I footnote 1); the algorithms below use the unidirectional
  half,
* an ``efficiency`` factor < 1 accounts for protocol overhead and the
  fact that achievable NCCL busbw is below line rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.interconnect import LinkSpec

#: Fraction of line-rate the collective library achieves in practice.
DEFAULT_EFFICIENCY = 0.75


def _validate(message_bytes: float, ranks: int) -> None:
    if message_bytes < 0:
        raise ValueError("message size must be >= 0")
    if ranks < 1:
        raise ValueError("need at least one rank")


def allreduce_time(
    message_bytes: float,
    ranks: int,
    link: LinkSpec,
    *,
    efficiency: float = DEFAULT_EFFICIENCY,
    algorithm: str = "ring",
) -> float:
    """Time for an all-reduce of ``message_bytes`` across ``ranks``.

    Ring: ``2 * (p-1)/p * N / B`` plus ``2*(p-1)`` latency hops.
    Tree: ``2 * N / B`` volume with ``2*log2(p)`` latency hops
    (better for small messages / many ranks).
    """
    _validate(message_bytes, ranks)
    if ranks == 1 or message_bytes == 0:
        return 0.0
    bw = link.unidirectional_bandwidth * efficiency
    if bw <= 0:
        raise ValueError("all-reduce over a zero-bandwidth link")
    if algorithm == "ring":
        volume = 2.0 * (ranks - 1) / ranks * message_bytes
        hops = 2 * (ranks - 1)
    elif algorithm == "tree":
        volume = 2.0 * message_bytes
        hops = 2 * max(1, math.ceil(math.log2(ranks)))
    else:
        raise ValueError(f"unknown all-reduce algorithm {algorithm!r}")
    return volume / bw + hops * link.latency_s


def reduce_scatter_time(
    message_bytes: float,
    ranks: int,
    link: LinkSpec,
    *,
    efficiency: float = DEFAULT_EFFICIENCY,
) -> float:
    """Ring reduce-scatter: ``(p-1)/p * N / B`` (half an all-reduce)."""
    _validate(message_bytes, ranks)
    if ranks == 1 or message_bytes == 0:
        return 0.0
    bw = link.unidirectional_bandwidth * efficiency
    if bw <= 0:
        raise ValueError("reduce-scatter over a zero-bandwidth link")
    return (ranks - 1) / ranks * message_bytes / bw + (ranks - 1) * link.latency_s


def allgather_time(message_bytes: float, ranks: int, link: LinkSpec) -> float:
    """Ring all-gather; same cost shape as reduce-scatter."""
    return reduce_scatter_time(message_bytes, ranks, link)


@dataclass(frozen=True)
class CollectiveModel:
    """Collective costs for one parallel job spanning possibly many nodes.

    When a collective spans nodes, the inter-node link is the
    bottleneck: the model takes the elementwise worst (max time) of the
    intra-node and inter-node phases of a hierarchical collective.

    Attributes
    ----------
    intra_link / inter_link:
        Link specs inside a node and between nodes.
    ranks_per_node / nodes:
        Layout of the job.

    Every phase runs at :data:`DEFAULT_EFFICIENCY` of line rate, with
    ring all-reduces.
    """

    intra_link: LinkSpec
    inter_link: LinkSpec
    ranks_per_node: int
    nodes: int = 1

    def __post_init__(self) -> None:
        if self.ranks_per_node < 1 or self.nodes < 1:
            raise ValueError("ranks_per_node and nodes must be >= 1")

    @property
    def world_size(self) -> int:
        """Total ranks participating in the collective."""
        return self.ranks_per_node * self.nodes

    def allreduce(self, message_bytes: float) -> float:
        """Hierarchical all-reduce time across the whole job."""
        if self.world_size == 1 or message_bytes == 0:
            return 0.0
        # Intra-node phase among local ranks.
        t_intra = 0.0
        if self.ranks_per_node > 1:
            t_intra = allreduce_time(
                message_bytes, self.ranks_per_node, self.intra_link
            )
        # Inter-node phase among node leaders.
        t_inter = 0.0
        if self.nodes > 1:
            t_inter = allreduce_time(message_bytes, self.nodes, self.inter_link)
        return t_intra + t_inter

    def reduce_scatter(self, message_bytes: float) -> float:
        """Hierarchical reduce-scatter time."""
        t = 0.0
        if self.ranks_per_node > 1:
            t += reduce_scatter_time(
                message_bytes, self.ranks_per_node, self.intra_link
            )
        if self.nodes > 1:
            t += reduce_scatter_time(
                message_bytes / self.ranks_per_node, self.nodes, self.inter_link,
            )
        return t

    def allgather(self, message_bytes: float) -> float:
        """Hierarchical all-gather time."""
        t = 0.0
        if self.nodes > 1:
            t += allgather_time(
                message_bytes / self.ranks_per_node, self.nodes, self.inter_link,
            )
        if self.ranks_per_node > 1:
            t += allgather_time(
                message_bytes, self.ranks_per_node, self.intra_link
            )
        return t

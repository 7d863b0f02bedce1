"""Multi-node LLM scaling analysis (extension of the Figure 4 idea).

The paper's heatmaps explore data-parallel scaling for ResNet50; this
module produces the equivalent curves for the LLM benchmark -- weak
scaling (fixed per-device batch) and strong scaling (fixed global
batch) across nodes -- on the systems with an inter-node fabric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.perf import LLMStepModel
from repro.errors import ConfigError
from repro.hardware.interconnect import LinkTechnology
from repro.hardware.systems import get_system
from repro.models.parallelism import ParallelLayout
from repro.models.transformer import get_gpt_preset


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a scaling curve."""

    nodes: int
    devices: int
    global_batch_size: int
    tokens_per_second: float
    tokens_per_second_per_device: float
    efficiency: float  # vs. perfect scaling from the 1-node point


def _check_multinode(tag: str) -> None:
    node = get_system(tag)
    if node.internode_link.technology is LinkTechnology.NONE:
        raise ConfigError(f"{tag} has no inter-node interconnect")


def weak_scaling(
    tag: str,
    *,
    per_device_batch: int = 64,
    max_nodes: int | None = None,
) -> list[ScalingPoint]:
    """Weak scaling of the 800M GPT: global batch grows with the device count."""
    _check_multinode(tag)
    node = get_system(tag)
    gpt = get_gpt_preset("800M")
    limit = max_nodes if max_nodes is not None else node.max_nodes
    if limit < 1:
        raise ConfigError("need at least one node")
    points: list[ScalingPoint] = []
    base_rate_per_device = None
    nodes = 1
    while nodes <= limit:
        devices = nodes * node.logical_devices_per_node
        gbs = per_device_batch * devices
        step_model = LLMStepModel(
            node, gpt, ParallelLayout(dp=devices), nodes_used=nodes
        )
        rate = step_model.tokens_per_second(gbs)
        per_device = rate / devices
        if base_rate_per_device is None:
            base_rate_per_device = per_device
        points.append(
            ScalingPoint(
                nodes=nodes,
                devices=devices,
                global_batch_size=gbs,
                tokens_per_second=rate,
                tokens_per_second_per_device=per_device,
                efficiency=per_device / base_rate_per_device,
            )
        )
        nodes *= 2
    return points


def strong_scaling(
    tag: str,
    *,
    global_batch_size: int = 2048,
) -> list[ScalingPoint]:
    """Strong scaling of the 800M GPT: fixed global batch, growing device
    count, up to the system's node count."""
    _check_multinode(tag)
    node = get_system(tag)
    gpt = get_gpt_preset("800M")
    limit = node.max_nodes
    points: list[ScalingPoint] = []
    base_rate = None
    nodes = 1
    while nodes <= limit:
        devices = nodes * node.logical_devices_per_node
        step_model = LLMStepModel(
            node, gpt, ParallelLayout(dp=devices), nodes_used=nodes
        )
        if global_batch_size % (step_model.micro_batch_size * devices) != 0:
            break  # ran out of divisible accumulation depth
        rate = step_model.tokens_per_second(global_batch_size)
        if base_rate is None:
            base_rate = rate
        points.append(
            ScalingPoint(
                nodes=nodes,
                devices=devices,
                global_batch_size=global_batch_size,
                tokens_per_second=rate,
                tokens_per_second_per_device=rate / devices,
                efficiency=rate / (base_rate * nodes),
            )
        )
        nodes *= 2
    return points


def scaling_rows(points: list[ScalingPoint]) -> list[dict[str, object]]:
    """Printable rows for a scaling curve."""
    return [
        {
            "nodes": p.nodes,
            "devices": p.devices,
            "gbs": p.global_batch_size,
            "tokens_per_s": round(p.tokens_per_second, 1),
            "per_device": round(p.tokens_per_second_per_device, 1),
            "efficiency": round(p.efficiency, 4),
        }
        for p in points
    ]

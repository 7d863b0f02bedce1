"""Activation memory accounting for transformer training.

Implements the activation-footprint formulas of Korthikanti et al.
("Reducing Activation Recomputation in Large Transformer Models", the
paper's reference [4]) that Megatron-LM's recomputation options follow:

* no recomputation, vanilla attention:
  ``s b h (34 + 5 a s / h)`` bytes per layer,
* flash attention / selective recomputation: the quadratic
  attention-matrix term disappears, leaving ``34 s b h``,
* full recomputation: only the layer input survives, ``2 s b h``,

with ``s`` sequence length, ``b`` micro-batch size, ``h`` hidden size
and ``a`` attention heads (fp16 activations).
"""

from __future__ import annotations

import enum

from repro.errors import ConfigError
from repro.models.transformer import GPTConfig


class RecomputeMode(str, enum.Enum):
    """Megatron-LM activation recomputation levels."""

    NONE = "none"
    SELECTIVE = "selective"
    FULL = "full"


def transformer_activation_bytes_per_layer(
    config: GPTConfig,
    micro_batch_size: int,
    mode: RecomputeMode = RecomputeMode.SELECTIVE,
) -> float:
    """Activation bytes one transformer layer keeps live, per micro-batch."""
    if micro_batch_size <= 0:
        raise ConfigError("micro batch size must be positive")
    s, b, h, a = config.seq_length, micro_batch_size, config.hidden, config.heads
    if mode is RecomputeMode.FULL:
        return 2.0 * s * b * h
    if mode is RecomputeMode.SELECTIVE or config.flash_attention:
        return 34.0 * s * b * h
    if mode is RecomputeMode.NONE:
        return s * b * h * (34.0 + 5.0 * a * s / h)
    raise ConfigError(f"unknown recompute mode {mode!r}")


def transformer_activation_bytes(
    config: GPTConfig,
    micro_batch_size: int,
    *,
    layers_resident: int | None = None,
    in_flight_micro_batches: int = 1,
) -> float:
    """Total live activation bytes on one device under selective
    recompute, the benchmark's setting.

    Parameters
    ----------
    layers_resident:
        Layers this device holds (``layers / pp`` under pipeline
        parallelism); defaults to the full stack.
    in_flight_micro_batches:
        Micro-batches simultaneously alive (pipeline parallelism keeps
        up to ``pp`` in flight in the 1F1B schedule).
    """
    if in_flight_micro_batches < 1:
        raise ConfigError("at least one micro-batch must be in flight")
    layers = layers_resident if layers_resident is not None else config.layers
    if layers <= 0:
        raise ConfigError("resident layer count must be positive")
    per_layer = transformer_activation_bytes_per_layer(config, micro_batch_size)
    # Embedding/logit working set: one token batch of vocab-width logits
    # dominates; keep the standard 4 s b h allowance.
    head = 4.0 * config.seq_length * micro_batch_size * config.hidden
    return per_layer * layers * in_flight_micro_batches + head

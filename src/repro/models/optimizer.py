"""Optimizer state memory accounting.

Both benchmarks use Adam with mixed precision.  Megatron-LM's
*distributed optimizer* (one of the "optimization features" the LLM
benchmark enables, paper §III-A1) shards the fp32 master weights and
Adam moments across the data-parallel group, reducing the per-device
optimizer footprint from 12 bytes/param to 12/dp.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.models.precision import DEFAULT_POLICY, DType, MixedPrecisionPolicy


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam optimizer with optional data-parallel state sharding."""

    name: str = "adam"
    distributed: bool = True
    moments: int = 2  # Adam keeps first and second moments

    def __post_init__(self) -> None:
        if self.moments < 0:
            raise ConfigError("moment count must be >= 0")


def optimizer_bytes_per_param(
    opt: OptimizerConfig,
    dp_size: int = 1,
    policy: MixedPrecisionPolicy = DEFAULT_POLICY,
) -> float:
    """Per-device bytes per parameter for weights+grads+optimizer state.

    The resident-per-device accounting is::

        params (compute dtype)            -- always replicated
        grads  (grad dtype)               -- always replicated
        master weights (fp32)             -- sharded if distributed
        moments (fp32)                    -- sharded if distributed

    With the default fp16/fp32 policy and Adam this is the familiar
    "16 bytes/param" unsharded and ``4 + 12/dp`` with the distributed
    optimizer.
    """
    if dp_size < 1:
        raise ConfigError("data-parallel size must be >= 1")
    replicated = policy.params.bytes + policy.grads.bytes
    fp32 = DType.FP32.bytes  # master weights and optimizer states
    shardable = (
        fp32 + opt.moments * fp32
        if policy.uses_mixed_precision
        else opt.moments * fp32
    )
    shard_factor = dp_size if opt.distributed else 1
    return replicated + shardable / shard_factor


def optimizer_state_bytes(
    parameters: int,
    opt: OptimizerConfig,
    dp_size: int = 1,
) -> float:
    """Total per-device bytes for a model's weights+grads+optimizer."""
    if parameters <= 0:
        raise ConfigError("parameter count must be positive")
    return parameters * optimizer_bytes_per_param(opt, dp_size)


def gradient_bytes(parameters: int) -> int:
    """Bytes of the gradient tensor all-reduced each iteration."""
    if parameters <= 0:
        raise ConfigError("parameter count must be positive")
    return parameters * DEFAULT_POLICY.grads.bytes

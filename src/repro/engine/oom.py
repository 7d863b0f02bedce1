"""Device memory feasibility checks (the OOM cells of Figure 4).

Both checks build a :class:`~repro.hardware.memory.MemoryPool` with the
workload's named allocations and return its budget; engines raise
:class:`~repro.errors.OutOfMemoryError` when a configuration does not
fit, while the heatmap generator records the cell as "OOM" the way the
paper's Figure 4 does.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.faults.injector import get_injector
from repro.hardware.memory import MemoryBudget, MemoryPool
from repro.hardware.node import NodeSpec
from repro.models.activation import transformer_activation_bytes
from repro.models.optimizer import OptimizerConfig, optimizer_state_bytes
from repro.models.parallelism import ParallelLayout
from repro.models.resnet import CNNConfig
from repro.models.transformer import GPTConfig

#: CUDA/ROCm context, NCCL buffers, framework workspace per device.
FRAMEWORK_RESERVED_BYTES = 2_000_000_000
#: cuDNN/MIOpen convolution workspace for the CNN benchmark.
CNN_WORKSPACE_BYTES = 1_000_000_000


def check_llm_memory(
    node: NodeSpec,
    model: GPTConfig,
    layout: ParallelLayout,
    micro_batch_size: int,
) -> MemoryBudget:
    """Per-device memory budget of a Megatron GPT configuration.

    Adam with Megatron's distributed optimizer, mixed precision and
    selective activation recompute: the benchmark's settings.
    """
    if micro_batch_size <= 0:
        raise ConfigError("micro batch size must be positive")
    pool = MemoryPool(node.device_memory_bytes, strict=False)

    shard_params = int(layout.shard_parameters(model.parameters))
    pool.allocate(
        "weights+grads+optimizer",
        optimizer_state_bytes(shard_params, OptimizerConfig(), layout.dp),
    )
    layers_resident = layout.layers_per_stage(model.layers)
    in_flight = layout.pp  # 1F1B keeps up to pp micro-batches alive
    activations = transformer_activation_bytes(
        model,
        micro_batch_size,
        layers_resident=layers_resident,
        in_flight_micro_batches=in_flight,
    )
    pool.allocate("activations", activations / max(1, layout.tp))
    pool.allocate("framework", FRAMEWORK_RESERVED_BYTES)
    _allocate_injected_pressure(pool)
    return pool.budget()


def check_cnn_memory(
    node: NodeSpec,
    model: CNNConfig,
    local_batch_size: int,
) -> MemoryBudget:
    """Per-device memory budget of a data-parallel CNN configuration.

    Horovod replicates the full model and (unsharded) optimizer state;
    activations scale with the local batch.
    """
    if local_batch_size <= 0:
        raise ConfigError("local batch size must be positive")
    pool = MemoryPool(node.device_memory_bytes, strict=False)
    opt = OptimizerConfig(distributed=False)
    pool.allocate(
        "weights+grads+optimizer",
        optimizer_state_bytes(model.parameters, opt),
    )
    pool.allocate(
        "activations", local_batch_size * model.activation_bytes_per_image
    )
    pool.allocate("workspace", CNN_WORKSPACE_BYTES)
    pool.allocate("framework", FRAMEWORK_RESERVED_BYTES)
    _allocate_injected_pressure(pool)
    return pool.budget()


def _allocate_injected_pressure(pool: MemoryPool) -> None:
    """Fold injected ``memory_pressure`` faults into a budget.

    An active chaos scope can reserve extra device memory (a leaked
    allocation, a greedy co-tenant), pushing borderline configurations
    over the OOM edge exactly where Figure 4 shows the walls.
    """
    pressure = get_injector().memory_pressure_bytes()
    if pressure > 0:
        pool.allocate("injected_pressure", pressure)

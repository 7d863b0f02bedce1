"""Parallelisation layouts: data, tensor, pipeline, sequence parallelism.

The LLM benchmark uses pure data parallelism for the 800M model ("which
fits within a single device"), adds tensor+pipeline+sequence
parallelism for 13B/175B, and the Graphcore variant uses pure pipeline
parallelism over 4 IPUs (paper §III-A1).  This module validates
layouts, computes micro-batch schedules and the pipeline bubble.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, OutOfMemoryError


@dataclass(frozen=True)
class ParallelLayout:
    """3D(+sequence) parallel layout of one training job.

    ``world = dp * tp * pp`` devices; sequence parallelism rides on the
    tensor-parallel group (it shards the norm/dropout activations over
    the same ranks) and is a boolean flag as in Megatron-LM.
    """

    dp: int = 1
    tp: int = 1
    pp: int = 1
    sequence_parallel: bool = False

    def __post_init__(self) -> None:
        for name, value in (("dp", self.dp), ("tp", self.tp), ("pp", self.pp)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.sequence_parallel and self.tp == 1:
            raise ConfigError("sequence parallelism requires tensor parallelism")

    @property
    def world_size(self) -> int:
        """Devices the layout occupies."""
        return self.dp * self.tp * self.pp

    def validate_batch(self, global_batch_size: int, micro_batch_size: int) -> int:
        """Check divisibility and return the micro-batch count per pipeline.

        The paper notes the constraint explicitly: "the global batch
        size of 16 is not possible since it is not divisible by
        micro-batch-size times data parallel".
        """
        if global_batch_size <= 0 or micro_batch_size <= 0:
            raise ConfigError("batch sizes must be positive")
        denom = micro_batch_size * self.dp
        if global_batch_size % denom != 0:
            raise ConfigError(
                f"global batch size {global_batch_size} is not divisible by "
                f"micro-batch-size x data-parallel = {micro_batch_size} x {self.dp}"
            )
        return global_batch_size // denom

    def layers_per_stage(self, total_layers: int) -> int:
        """Transformer layers each pipeline stage holds (ceil division)."""
        if total_layers <= 0:
            raise ConfigError("layer count must be positive")
        if self.pp > total_layers:
            raise ConfigError(
                f"pipeline size {self.pp} exceeds layer count {total_layers}"
            )
        return -(-total_layers // self.pp)

    def shard_parameters(self, parameters: int) -> float:
        """Parameters resident per device under tensor+pipeline sharding."""
        if parameters <= 0:
            raise ConfigError("parameter count must be positive")
        return parameters / (self.tp * self.pp)


def pipeline_bubble_fraction(pp: int, micro_batches: int) -> float:
    """Idle fraction of the 1F1B pipeline schedule.

    One iteration takes ``(m + p - 1)`` stage-times for ``m``
    micro-batches over ``p`` stages; ``(p - 1) / (m + p - 1)`` of it is
    fill/drain bubble.  The paper invokes exactly this to explain the
    low IPU GPT throughput ("This form of parallelism introduces a
    pipeline bubble and is not as efficient as data parallelism").
    """
    if pp < 1 or micro_batches < 1:
        raise ConfigError("pp and micro_batches must be >= 1")
    return (pp - 1) / (micro_batches + pp - 1)


def pipeline_stage_times(pp: int, micro_batches: int, stage_time_s: float) -> float:
    """Wall time of one pipelined iteration (1F1B schedule)."""
    if stage_time_s < 0:
        raise ConfigError("stage time must be >= 0")
    if pp < 1 or micro_batches < 1:
        raise ConfigError("pp and micro_batches must be >= 1")
    return (micro_batches + pp - 1) * stage_time_s


def suggest_layout(
    model_params: int,
    device_memory_bytes: int,
    devices: int,
    *,
    bytes_per_param: float = 16.0,
) -> ParallelLayout:
    """Pick the smallest model-parallel footprint that fits memory.

    Heuristic mirroring how the suite sizes its 13B/175B configs:
    grow ``tp`` first (up to 8, intra-node), then ``pp``; remaining
    devices become data parallel.
    """
    if devices < 1:
        raise ConfigError("need at least one device")
    state_bytes = model_params * bytes_per_param
    # Reserve ~40 % of memory for activations and workspace.
    usable = device_memory_bytes * 0.6
    tp = 1
    pp = 1
    while state_bytes / (tp * pp) > usable:
        if tp < 8 and tp * 2 * pp <= devices:
            tp *= 2
        elif tp * pp * 2 <= devices:
            pp *= 2
        else:
            raise OutOfMemoryError(
                f"model with {model_params / 1e9:.1f}B params does not fit on "
                f"{devices} devices of {device_memory_bytes / 1e9:.0f} GB",
                required_bytes=int(state_bytes / (tp * pp)),
                capacity_bytes=int(usable),
            )
    dp = devices // (tp * pp)
    return ParallelLayout(dp=max(dp, 1), tp=tp, pp=pp, sequence_parallel=tp > 1)

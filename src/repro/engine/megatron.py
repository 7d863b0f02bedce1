"""Megatron-LM-style LLM training engine (NVIDIA / AMD, paper §III-A1).

The engine mirrors the benchmark's execution semantics:

* trains a GPT model from scratch with data (and optionally tensor /
  pipeline / sequence) parallelism at micro-batch size 4,
* terminates on ``exit_duration_in_mins`` (the Megatron-LM command-line
  argument CARAML uses) or a fixed iteration count,
* reports throughput as ``global_batch_size * sequence_length /
  elapsed_time_per_iteration`` in tokens/second,
* wraps the run in a jpwr scope; energy is reported per device in Wh.
"""

from __future__ import annotations

from repro.engine.oom import check_llm_memory
from repro.engine.perf import LLMStepModel
from repro.engine.trainer import TrainResult, measure_run
from repro.errors import ConfigError, OutOfMemoryError
from repro.hardware.accelerator import AcceleratorKind
from repro.hardware.node import NodeSpec
from repro.models.lossmodel import GPT_LOSS
from repro.obs.metrics import get_metrics
from repro.models.parallelism import ParallelLayout
from repro.models.transformer import GPTConfig


class MegatronEngine:
    """Simulated Megatron-LM trainer for one system and model."""

    def __init__(
        self,
        node: NodeSpec,
        model: GPTConfig,
        layout: ParallelLayout,
        *,
        micro_batch_size: int = 4,
        nodes_used: int = 1,
    ) -> None:
        if node.accelerator.kind is AcceleratorKind.IPU:
            raise ConfigError(
                "MegatronEngine targets GPU systems; use PoplarGPTEngine for IPUs"
            )
        self.node = node
        self.model = model
        self.layout = layout
        self.micro_batch_size = micro_batch_size
        self.step_model = LLMStepModel(
            node,
            model,
            layout,
            micro_batch_size=micro_batch_size,
            nodes_used=nodes_used,
        )

    def check_memory(self) -> None:
        """Raise OutOfMemoryError when the configuration does not fit."""
        budget = check_llm_memory(
            self.node, self.model, self.layout, self.micro_batch_size
        )
        if not budget.fits:
            raise OutOfMemoryError(
                f"{self.model.name} with layout dp={self.layout.dp} "
                f"tp={self.layout.tp} pp={self.layout.pp} needs "
                f"{budget.used_bytes / 1e9:.1f} GB on a "
                f"{budget.capacity_bytes / 1e9:.0f} GB device",
                required_bytes=budget.used_bytes,
                capacity_bytes=budget.capacity_bytes,
            )

    def train(
        self,
        global_batch_size: int,
        *,
        exit_duration_s: float | None = None,
        iterations: int | None = None,
    ) -> TrainResult:
        """Run the benchmark and return its result row.

        Exactly one of ``exit_duration_s`` (Megatron's
        ``--exit-duration-in-mins``, in seconds here) or ``iterations``
        must be given.
        """
        if (exit_duration_s is None) == (iterations is None):
            raise ConfigError("give exactly one of exit_duration_s or iterations")
        self.check_memory()
        step = self.step_model.step(global_batch_size)
        if iterations is None:
            assert exit_duration_s is not None
            if exit_duration_s <= 0:
                raise ConfigError("exit duration must be positive")
            iterations = max(1, int(exit_duration_s // step.total_s))

        local_devices = min(self.layout.world_size, self.node.logical_devices_per_node)

        def body(runner, clock):
            runner.run_steps(step, iterations)
            return iterations

        _, elapsed, energy_wh, mean_power = measure_run(
            self.node,
            local_devices,
            body,
            span_name="llm/train",
            span_attrs={
                "model": self.model.name,
                "global_batch_size": global_batch_size,
                "iterations": iterations,
            },
        )
        tokens = global_batch_size * self.model.seq_length * iterations
        throughput = tokens / elapsed
        get_metrics().gauge("llm_tokens_per_s", "LLM training throughput").set(
            throughput, system=self.node.jube_tag, model=self.model.name
        )
        final_loss = GPT_LOSS.loss(tokens, global_batch_size)
        return TrainResult(
            system_tag=self.node.jube_tag,
            benchmark=f"llm-{self.model.name}",
            global_batch_size=global_batch_size,
            devices=self.layout.world_size,
            iterations=iterations,
            elapsed_s=elapsed,
            throughput=throughput,
            throughput_unit="tokens_per_s",
            energy_per_device_wh=energy_wh,
            mean_power_per_device_w=mean_power,
            extra={
                "step_time_s": step.total_s,
                "step_compute_s": step.compute_s,
                "step_comm_s": step.comm_exposed_s,
                "pipeline_bubble_s": step.bubble_s,
                "final_loss": final_loss,
            },
        )

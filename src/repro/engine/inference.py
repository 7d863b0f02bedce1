"""LLM inference benchmark engine (paper §VI future work).

The paper's conclusions name "additional AI training and inference
benchmarks" as planned extensions; this engine provides the inference
side for the GPU systems using the standard two-phase roofline model:

* **prefill** -- processing the prompt is compute-bound: one forward
  pass over ``prompt_tokens`` at the training MFU,
* **decode** -- generating tokens is memory-bandwidth-bound at small
  batch (every step re-reads all weights plus the KV cache) and
  becomes compute-bound at large batch,

with the KV cache bounding the maximum concurrent batch.  The same
figures of merit as the training benchmarks apply: tokens/s per device
and tokens/Wh, measured through the identical jpwr path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.calibration import get_calibration
from repro.engine.trainer import TrainResult, measure_run
from repro.errors import ConfigError, OutOfMemoryError
from repro.hardware.accelerator import AcceleratorKind
from repro.hardware.node import NodeSpec
from repro.models.transformer import GPTConfig

#: Achievable fraction of memory bandwidth during decode (attention and
#: weight streaming do not hit STREAM numbers).
DECODE_BANDWIDTH_EFFICIENCY = 0.65
#: Inference runtime overhead per decode step (scheduler, sampling).
DECODE_STEP_OVERHEAD_S = 0.2e-3
#: Device memory held back for the inference runtime (CUDA context,
#: workspace, activation scratch).  Both memory paths — the hard
#: ``check_memory`` gate and the ``max_batch_size`` planner — subtract
#: this same reserve so they cannot drift apart.
RUNTIME_RESERVE_BYTES = 2_000_000_000
#: Device utilisation during decode relative to the prefill (compute
#: saturated) utilisation point.  Numerically equal to
#: :data:`DECODE_BANDWIDTH_EFFICIENCY` but a distinct quantity: that
#: one scales achievable *bandwidth*, this one scales the *power-model
#: utilisation* of the bandwidth-bound phase.
DECODE_UTILISATION_FRACTION = 0.65


@dataclass(frozen=True)
class InferenceWorkload:
    """One serving workload: prompt and generation lengths, batch."""

    prompt_tokens: int = 512
    generate_tokens: int = 256
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.prompt_tokens < 1 or self.generate_tokens < 1:
            raise ConfigError("prompt and generation lengths must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")


class InferenceEngine:
    """Single-device LLM inference on one GPU system."""

    def __init__(self, node: NodeSpec, model: GPTConfig) -> None:
        if node.accelerator.kind is AcceleratorKind.IPU:
            raise ConfigError("the inference engine targets GPU systems")
        self.node = node
        self.model = model
        self.cal = get_calibration(node.jube_tag)

    # -- memory ------------------------------------------------------------

    def kv_cache_bytes(self, workload: InferenceWorkload) -> float:
        """KV cache for the full batch at maximum context."""
        context = workload.prompt_tokens + workload.generate_tokens
        return (
            workload.batch_size
            * context
            * self.model.kv_cache_bytes_per_token()
        )

    def kv_budget_bytes(self) -> float:
        """Device memory left for KV cache after weights and runtime.

        The single source both memory paths (:meth:`check_memory` and
        :meth:`max_batch_size`) and the serving scheduler's admission
        control derive from; may be negative when the weights alone
        exceed the device.
        """
        return (
            self.node.device_memory_bytes
            - self.model.weight_bytes()
            - RUNTIME_RESERVE_BYTES
        )

    def check_memory(self, workload: InferenceWorkload) -> None:
        """Weights + KV cache + runtime must fit device memory."""
        needed = (
            self.model.weight_bytes()
            + self.kv_cache_bytes(workload)
            + RUNTIME_RESERVE_BYTES
        )
        capacity = self.node.device_memory_bytes
        if needed > capacity:
            raise OutOfMemoryError(
                f"inference batch {workload.batch_size} at context "
                f"{workload.prompt_tokens + workload.generate_tokens} needs "
                f"{needed / 1e9:.1f} GB of {capacity / 1e9:.0f} GB",
                required_bytes=int(needed),
                capacity_bytes=capacity,
            )

    def max_batch_size(self, workload: InferenceWorkload) -> int:
        """Largest batch whose KV cache fits device memory."""
        context = workload.prompt_tokens + workload.generate_tokens
        per_seq = context * self.model.kv_cache_bytes_per_token()
        free = self.kv_budget_bytes()
        if free < per_seq:
            return 0
        return int(free // per_seq)

    # -- timing -------------------------------------------------------------

    def prefill_time_s(self, workload: InferenceWorkload) -> float:
        """Compute-bound prompt processing for the whole batch."""
        flops = (
            workload.batch_size
            * workload.prompt_tokens
            * self.model.flops_per_token_forward
        )
        return flops / (self.node.device_peak_flops * self.cal.mfu_llm)

    def decode_step_time_s(self, batch_size: int) -> float:
        """One generation step for the whole batch (roofline max)."""
        if batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        weight_read = self.model.weight_bytes()
        bandwidth_time = weight_read / (
            self.node.device_memory_bandwidth * DECODE_BANDWIDTH_EFFICIENCY
        )
        compute_time = (
            batch_size
            * self.model.flops_per_token_forward
            / (self.node.device_peak_flops * self.cal.mfu_llm)
        )
        return max(bandwidth_time, compute_time) + DECODE_STEP_OVERHEAD_S

    def saturation_batch_size(self) -> float:
        """Batch where decode flips from bandwidth- to compute-bound."""
        weight_read = self.model.weight_bytes()
        bandwidth_time = weight_read / (
            self.node.device_memory_bandwidth * DECODE_BANDWIDTH_EFFICIENCY
        )
        per_seq_compute = self.model.flops_per_token_forward / (
            self.node.device_peak_flops * self.cal.mfu_llm
        )
        return bandwidth_time / per_seq_compute

    # -- measured run ------------------------------------------------------------

    def serve(
        self,
        workload: InferenceWorkload,
        *,
        requests: int = 8,
    ) -> TrainResult:
        """Serve ``requests`` batches end-to-end under a jpwr scope."""
        if requests < 1:
            raise ConfigError("requests must be >= 1")
        self.check_memory(workload)
        t_prefill = self.prefill_time_s(workload)
        t_decode = workload.generate_tokens * self.decode_step_time_s(
            workload.batch_size
        )
        # Prefill saturates compute; decode is bandwidth-bound and runs
        # at a lower utilisation point.
        util_prefill = self.cal.util_full_llm
        util_decode = self.cal.util_full_llm * DECODE_UTILISATION_FRACTION

        def body(runner, clock):
            for _ in range(requests):
                runner.run_phase(t_prefill, util_prefill)
                runner.run_phase(t_decode, util_decode)
            return requests

        _, elapsed, energy_wh, mean_power = measure_run(
            self.node,
            1,
            body,
            span_name="llm/serve",
            span_attrs={
                "model": self.model.name,
                "batch_size": workload.batch_size,
                "requests": requests,
            },
        )
        generated = requests * workload.batch_size * workload.generate_tokens
        # A fault plan can zero out the power trace (e.g. a negative
        # sensor_spike clamping every sample to 0 W); report 0 tokens/Wh
        # instead of dividing by zero, matching the aggregate() guard.
        tokens_per_wh = generated / energy_wh if energy_wh > 0 else 0.0
        return TrainResult(
            system_tag=self.node.jube_tag,
            benchmark=f"llm-infer-{self.model.name}",
            global_batch_size=workload.batch_size,
            devices=1,
            iterations=requests,
            elapsed_s=elapsed,
            throughput=generated / elapsed,
            throughput_unit="tokens_per_s",
            energy_per_device_wh=energy_wh,
            mean_power_per_device_w=mean_power,
            extra={
                "prefill_time_s": t_prefill,
                "decode_time_s": t_decode,
                "time_to_first_token_s": t_prefill,
                "tokens_per_wh": tokens_per_wh,
            },
        )

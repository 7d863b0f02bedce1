"""Step-time performance models for the two benchmark workloads.

These models compute, in closed form, the duration and composition of
one optimizer step on a given Table I system.  The engines
(:mod:`repro.engine.megatron`, :mod:`repro.engine.tfcnn`) iterate them
against the virtual clock; the Figure 4 heatmap generator evaluates
them directly.

Mechanisms implemented (all observable in the paper's results):

* batch-size saturation through fixed per-step overhead amortisation
  and kernel batch efficiency,
* data-parallel gradient all-reduce cost with partial overlap,
  hierarchical across nodes (ring within, ring across),
* tensor/pipeline/sequence parallelism costs for the large GPT
  configurations (activation collectives, pipeline bubble),
* host input-pipeline effects: JPEG decode throughput and page-cache
  capacity (CPU memory per device) for the CNN benchmark,
* the MI250 shared-MCM derate when both GCDs of a package are active,
* NUMA-affinity penalties via :mod:`repro.simcluster.affinity`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.calibration import SystemCalibration, get_calibration
from repro.data.imagenet import IMAGENET_TRAIN_IMAGES
from repro.engine.efficiency import batch_efficiency
from repro.errors import ConfigError
from repro.hardware.accelerator import Vendor
from repro.hardware.node import NodeSpec
from repro.models.optimizer import gradient_bytes
from repro.models.parallelism import ParallelLayout
from repro.models.resnet import CNNConfig
from repro.models.transformer import GPTConfig
from repro.models.precision import DEFAULT_POLICY
from repro.simcluster.affinity import AffinityEffect, BindingPolicy, affinity_penalty
from repro.simcluster.nccl import CollectiveModel


def _mean_affinity(node: NodeSpec, devices: int, policy: BindingPolicy) -> AffinityEffect:
    """Affinity effect averaged over the devices a run occupies.

    Policies like WRONG_NUMA hit devices unevenly (a task pinned to
    domain 0 is fine for device 0 but remote for the rest); step models
    charge the mean effect.
    """
    local = max(1, min(devices, node.logical_devices_per_node))
    effects = [affinity_penalty(node, i, policy) for i in range(local)]
    return AffinityEffect(
        host_bandwidth_factor=sum(e.host_bandwidth_factor for e in effects) / local,
        collective_latency_factor=sum(e.collective_latency_factor for e in effects)
        / local,
    )


@dataclass(frozen=True)
class StepBreakdown:
    """Composition of one optimizer step on one device's timeline."""

    compute_s: float
    comm_exposed_s: float
    host_s: float
    overhead_s: float
    bubble_s: float
    utilisation: float  # power-model utilisation during the busy phase

    @property
    def total_s(self) -> float:
        """Wall time of the step."""
        return (
            self.compute_s
            + self.comm_exposed_s
            + self.host_s
            + self.overhead_s
            + self.bubble_s
        )

    @property
    def busy_s(self) -> float:
        """Time at compute utilisation (the rest idles near base load)."""
        return self.compute_s


def _amd_derate(node: NodeSpec, devices_used: int, cal: SystemCalibration) -> float:
    """Per-GCD throughput derate when the node's power envelope fills.

    Runs occupying more than half the node's GCDs (i.e. the paper's
    8-GCD "MI250:GPU" LLM variant) lose cooling/power headroom and
    clock slightly lower per die -- the §IV-A observation that 4 GCDs
    perform "slightly better per device" than 8.
    """
    if (
        node.accelerator.vendor is Vendor.AMD
        and devices_used > node.logical_devices_per_node // 2
    ):
        return cal.mcm_shared_power_derate
    return 1.0


class LLMStepModel:
    """Megatron-style GPT training step on one system.

    Parameters
    ----------
    node / calibration:
        Target system; calibration defaults to the tag's entry.
    model:
        GPT architecture.
    layout:
        Parallel layout.  ``layout.world_size`` devices must exist on
        ``nodes_used`` nodes of this type.
    micro_batch_size:
        Sequences per micro-batch (the benchmark fixes 4).
    nodes_used:
        Nodes the job spans (ranks are packed densely).
    binding:
        CPU binding policy (§V-C); affects collective latency and host
        costs.
    """

    def __init__(
        self,
        node: NodeSpec,
        model: GPTConfig,
        layout: ParallelLayout,
        *,
        micro_batch_size: int = 4,
        nodes_used: int = 1,
        calibration: SystemCalibration | None = None,
        binding: BindingPolicy = BindingPolicy.GPU_AFFINE,
    ) -> None:
        if micro_batch_size <= 0:
            raise ConfigError("micro batch size must be positive")
        if nodes_used < 1:
            raise ConfigError("nodes_used must be >= 1")
        capacity = node.logical_devices_per_node * nodes_used
        if layout.world_size > capacity:
            raise ConfigError(
                f"layout needs {layout.world_size} devices, "
                f"{nodes_used} x {node.name} provides {capacity}"
            )
        self.node = node
        self.model = model
        self.layout = layout
        self.micro_batch_size = micro_batch_size
        self.cal = calibration if calibration is not None else get_calibration(node.jube_tag)
        self._affinity = _mean_affinity(node, layout.world_size, binding)

        derate = _amd_derate(node, layout.world_size, self.cal)
        self.effective_peak_flops = node.device_peak_flops * derate

    # -- per-micro-batch compute -------------------------------------------

    #: Micro-batch at which the calibrated MFU is anchored (the
    #: benchmark's fixed setting).
    REFERENCE_MICRO_BATCH = 4
    #: Kernel-efficiency half point in sequences per micro-batch.
    MICRO_BATCH_HALF = 1.5

    def micro_batch_efficiency(self) -> float:
        """Relative GEMM efficiency of the configured micro-batch size.

        Normalised to 1.0 at the benchmark's reference micro-batch of
        4; smaller micro-batches under-fill the tensor cores, larger
        ones help slightly (this is what makes the micro-batch size a
        real hyperparameter in the exploration tooling -- the memory
        budget pushes it down, kernel efficiency pushes it up).
        """
        anchor = batch_efficiency(
            self.REFERENCE_MICRO_BATCH, self.MICRO_BATCH_HALF, floor=0.2
        )
        return batch_efficiency(
            self.micro_batch_size, self.MICRO_BATCH_HALF, floor=0.2
        ) / anchor

    def micro_batch_compute_s(self) -> float:
        """Compute time of one micro-batch on one device (all stages)."""
        tokens = self.micro_batch_size * self.model.seq_length
        flops = tokens * self.model.flops_per_token_train
        per_device_flops = flops / (self.layout.tp * self.layout.pp)
        mfu = self.cal.mfu_llm * self.micro_batch_efficiency()
        return per_device_flops / (self.effective_peak_flops * mfu)

    def tensor_parallel_comm_s(self) -> float:
        """Per-micro-batch activation collectives of tensor parallelism.

        Megatron does two all-reduces (or, with sequence parallelism,
        reduce-scatter+all-gather pairs of the same volume) per layer
        per pass; volume per collective is the activation tile
        ``s * b * h`` in compute precision.
        """
        if self.layout.tp == 1:
            return 0.0
        tile = (
            self.model.seq_length
            * self.micro_batch_size
            * self.model.hidden
            * DEFAULT_POLICY.compute.bytes
        )
        collectives_per_layer = 4  # fwd x2 + bwd x2
        layers = self.model.layers / self.layout.pp
        tp_model = CollectiveModel(
            intra_link=self.node.accel_accel_link,
            inter_link=self.node.internode_link,
            ranks_per_node=min(self.layout.tp, self.node.logical_devices_per_node),
            nodes=max(1, -(-self.layout.tp // self.node.logical_devices_per_node)),
        )
        per_collective = tp_model.allreduce(tile)
        return per_collective * collectives_per_layer * layers

    def gradient_comm_s(self) -> float:
        """Per-iteration exposed gradient synchronisation time.

        Megatron's distributed optimizer makes this a reduce-scatter
        plus all-gather over the data-parallel group; partial overlap
        with backward hides ``comm_overlap`` of it.
        """
        if self.layout.dp == 1:
            return 0.0
        shard_params = self.model.parameters / (self.layout.tp * self.layout.pp)
        grad_bytes = gradient_bytes(int(shard_params))
        dp_ranks_per_node = max(
            1, min(self.layout.dp, self.node.logical_devices_per_node)
        )
        dp_model = CollectiveModel(
            intra_link=self.node.accel_accel_link,
            inter_link=self.node.internode_link,
            ranks_per_node=dp_ranks_per_node,
            nodes=max(1, -(-self.layout.dp // dp_ranks_per_node)),
        )
        full = dp_model.reduce_scatter(grad_bytes) + dp_model.allgather(grad_bytes)
        exposed = full * (1.0 - self.cal.comm_overlap)
        return exposed * self._affinity.collective_latency_factor

    # -- full step -----------------------------------------------------------

    def step(self, global_batch_size: int) -> StepBreakdown:
        """Breakdown of one optimizer step at a global batch size."""
        n_micro = self.layout.validate_batch(global_batch_size, self.micro_batch_size)
        # micro_batch_compute_s already divides by tp*pp, so t_micro is
        # the per-*stage* time; the 1F1B wall time is
        # (n_micro + pp - 1) stage-times.
        t_micro = self.micro_batch_compute_s() + self.tensor_parallel_comm_s()
        compute = n_micro * t_micro
        bubble = (self.layout.pp - 1) * t_micro if self.layout.pp > 1 else 0.0
        comm = self.gradient_comm_s()
        # Token batches are tiny; host time is a fixed small cost folded
        # into the calibrated step overhead.
        host = 0.0
        overhead = self.cal.llm_step_overhead_s
        # Utilisation climbs mildly with accumulation depth (fuller
        # queues); anchored at the calibrated full-load value.
        util = self.cal.util_full_llm * (0.85 + 0.15 * batch_efficiency(n_micro, 2.0))
        return StepBreakdown(
            compute_s=compute,
            comm_exposed_s=comm,
            host_s=host,
            overhead_s=overhead,
            bubble_s=bubble,
            utilisation=min(util, 1.0),
        )

    def tokens_per_second(self, global_batch_size: int) -> float:
        """Aggregate training throughput across all devices."""
        step = self.step(global_batch_size)
        tokens = global_batch_size * self.model.seq_length
        return tokens / step.total_s

    def tokens_per_second_per_device(self, global_batch_size: int) -> float:
        """The paper's Figure 2 y-axis: tokens/s normalised per device.

        The paper normalises "per data parallel", which equals the
        device count for the pure-DP 800M runs.
        """
        return self.tokens_per_second(global_batch_size) / self.layout.world_size


class CNNStepModel:
    """tf_cnn_benchmarks-style ResNet training step (Horovod DP)."""

    def __init__(
        self,
        node: NodeSpec,
        model: CNNConfig,
        *,
        devices: int = 1,
        nodes_used: int = 1,
        binding: BindingPolicy = BindingPolicy.GPU_AFFINE,
        synthetic_data: bool = False,
    ) -> None:
        if devices < 1 or nodes_used < 1:
            raise ConfigError("devices and nodes_used must be >= 1")
        if devices > node.logical_devices_per_node * nodes_used:
            raise ConfigError(
                f"{devices} devices do not fit on {nodes_used} x {node.name}"
            )
        self.node = node
        self.model = model
        self.devices = devices
        self.cal = get_calibration(node.jube_tag)
        self.synthetic_data = synthetic_data
        self._affinity = _mean_affinity(node, devices, binding)
        derate = _amd_derate(node, devices, self.cal)
        self.effective_peak_flops = node.device_peak_flops * derate
        ranks_per_node = min(devices, node.logical_devices_per_node)
        self.collectives = CollectiveModel(
            intra_link=node.accel_accel_link,
            inter_link=node.internode_link,
            ranks_per_node=ranks_per_node,
            nodes=max(1, -(-devices // ranks_per_node)),
        )

    # -- host input pipeline -------------------------------------------------

    def host_cache_factor(self) -> float:
        """Input-pipeline efficiency from host page-cache capacity.

        Each device streams its shard of the decoded dataset per epoch;
        when CPU memory per device cannot hold the shard, re-reads and
        decode pressure stall the pipeline.  This is the mechanism the
        paper offers for GH200 (JRDC, 480 GB/GPU) beating JEDI
        (120 GB/GPU) at large ResNet batch sizes.  Synthetic data skips
        the pipeline entirely.
        """
        if self.synthetic_data:
            return 1.0
        shard_bytes = IMAGENET_TRAIN_IMAGES * self.model.image_pixels / self.devices
        hit = min(1.0, self.node.cpu_memory_per_device / shard_bytes)
        w = self.cal.host_cache_sensitivity
        return (1.0 - w) + w * hit

    def host_decode_rate(self) -> float:
        """Host decode+augment throughput available per device (img/s)."""
        if self.synthetic_data:
            return float("inf")
        local_devices = min(self.devices, self.node.logical_devices_per_node)
        cores = self.node.cpu_cores_per_node / local_devices
        return (
            cores
            * self.cal.decode_rate_per_core
            * self._affinity.host_bandwidth_factor
        )

    # -- step ------------------------------------------------------------------

    def step(self, local_batch_size: int) -> StepBreakdown:
        """Breakdown of one step at a per-device batch size."""
        if local_batch_size <= 0:
            raise ConfigError("local batch size must be positive")
        b = local_batch_size
        sat = batch_efficiency(b, self.cal.cnn_batch_half, floor=0.08)
        rate = (
            self.effective_peak_flops
            * self.cal.mfu_cnn
            * sat
            / self.model.flops_per_image_train
        )
        # Input-pipeline efficiency: page-cache capacity plus the §V-C
        # binding penalty (NUMA-remote caches and staging buffers slow
        # every batch handoff even when raw decode keeps up; softened
        # exponent keeps the affine case exactly at 1.0).
        pipeline = self.host_cache_factor() * (
            self._affinity.host_bandwidth_factor**0.3
        )
        compute = b / rate / pipeline
        # Input pipeline overlaps with compute; only the excess stalls.
        host = max(0.0, b / self.host_decode_rate() - compute)
        comm = 0.0
        if self.devices > 1:
            grad_bytes = gradient_bytes(self.model.parameters)
            full = self.collectives.allreduce(grad_bytes)
            comm = full * (1.0 - self.cal.comm_overlap)
            comm *= self._affinity.collective_latency_factor
        overhead = self.cal.cnn_step_overhead_s
        s = self.cal.util_batch_sensitivity
        util = self.cal.util_full_cnn * ((1.0 - s) + s * sat)
        return StepBreakdown(
            compute_s=compute,
            comm_exposed_s=comm,
            host_s=host,
            overhead_s=overhead,
            bubble_s=0.0,
            utilisation=min(util, 1.0),
        )

    def images_per_second(self, global_batch_size: int) -> float:
        """Aggregate throughput at a global batch size."""
        if global_batch_size % self.devices != 0:
            raise ConfigError(
                f"global batch {global_batch_size} not divisible by "
                f"{self.devices} devices"
            )
        local = global_batch_size // self.devices
        step = self.step(local)
        return global_batch_size / step.total_s

    def images_per_second_per_device(self, global_batch_size: int) -> float:
        """Throughput normalised per device (Figure 3's single-device
        panel uses devices=1, where this equals the aggregate)."""
        return self.images_per_second(global_batch_size) / self.devices

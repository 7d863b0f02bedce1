"""tf_cnn_benchmarks-style ResNet training engine (paper §III-A2).

Execution semantics mirror the benchmark:

* trains the CNN from scratch for 100 iterations (the benchmark's
  fixed step count) at a global batch size, using mixed precision and
  Horovod data parallelism,
* reports throughput as ``global_batch_size /
  elapsed_time_per_iteration`` in images/second,
* energy per *epoch* (the paper's Figure 3 middle panel) is derived
  from the measured mean power and the time a full ImageNet epoch
  (1,281,167 images) would take at the measured throughput.
"""

from __future__ import annotations

from repro.data.imagenet import IMAGENET_TRAIN_IMAGES
from repro.engine.oom import check_cnn_memory
from repro.engine.perf import CNNStepModel
from repro.engine.trainer import TrainResult, measure_run
from repro.errors import ConfigError, OutOfMemoryError
from repro.hardware.accelerator import AcceleratorKind
from repro.hardware.node import NodeSpec
from repro.models.lossmodel import RESNET_LOSS
from repro.models.resnet import CNNConfig
from repro.obs.metrics import get_metrics
from repro.simcluster.affinity import BindingPolicy

#: The benchmark's fixed iteration count.
BENCHMARK_ITERATIONS = 100


class TFCNNEngine:
    """Simulated tf_cnn_benchmarks trainer for one system."""

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
        if node.accelerator.kind is AcceleratorKind.IPU:
            raise ConfigError(
                "TFCNNEngine targets GPU systems; use PoplarResNetEngine for IPUs"
            )
        self.node = node
        self.model = model
        self.devices = devices
        self.step_model = CNNStepModel(
            node,
            model,
            devices=devices,
            nodes_used=nodes_used,
            binding=binding,
            synthetic_data=synthetic_data,
        )

    def check_memory(self, local_batch_size: int) -> None:
        """Raise OutOfMemoryError when the local batch does not fit."""
        budget = check_cnn_memory(self.node, self.model, local_batch_size)
        if not budget.fits:
            raise OutOfMemoryError(
                f"{self.model.name} local batch {local_batch_size} needs "
                f"{budget.used_bytes / 1e9:.1f} GB on a "
                f"{budget.capacity_bytes / 1e9:.0f} GB device",
                required_bytes=budget.used_bytes,
                capacity_bytes=budget.capacity_bytes,
            )

    def train(
        self,
        global_batch_size: int,
        *,
        iterations: int = BENCHMARK_ITERATIONS,
    ) -> TrainResult:
        """Run the 100-iteration benchmark and return its result row."""
        if iterations <= 0:
            raise ConfigError("iterations must be positive")
        if global_batch_size % self.devices != 0:
            raise ConfigError(
                f"global batch {global_batch_size} not divisible by "
                f"{self.devices} devices"
            )
        local = global_batch_size // self.devices
        self.check_memory(local)
        step = self.step_model.step(local)

        local_devices = min(self.devices, self.node.logical_devices_per_node)

        def body(runner, clock):
            runner.run_steps(step, iterations)
            return iterations

        _, elapsed, energy_wh, mean_power = measure_run(
            self.node,
            local_devices,
            body,
            span_name="resnet/train",
            span_attrs={
                "model": self.model.name,
                "global_batch_size": global_batch_size,
                "iterations": iterations,
            },
        )
        images = global_batch_size * iterations
        throughput = images / elapsed
        get_metrics().gauge("resnet_images_per_s", "CNN training throughput").set(
            throughput, system=self.node.jube_tag, model=self.model.name
        )
        epoch_s = IMAGENET_TRAIN_IMAGES / throughput
        epoch_energy_per_device_wh = mean_power * epoch_s / 3600.0
        return TrainResult(
            system_tag=self.node.jube_tag,
            benchmark=f"resnet-{self.model.name}",
            global_batch_size=global_batch_size,
            devices=self.devices,
            iterations=iterations,
            elapsed_s=elapsed,
            throughput=throughput,
            throughput_unit="images_per_s",
            energy_per_device_wh=energy_wh,
            mean_power_per_device_w=mean_power,
            extra={
                "step_time_s": step.total_s,
                "final_top1_error": RESNET_LOSS.loss(images, global_batch_size),
                "epoch_time_s": epoch_s,
                "epoch_energy_per_device_wh": epoch_energy_per_device_wh,
                "images_per_wh": (
                    IMAGENET_TRAIN_IMAGES / self.devices / epoch_energy_per_device_wh
                ),
            },
        )

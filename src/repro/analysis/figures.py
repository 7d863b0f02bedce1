"""Regeneration of the paper's Figures 2 and 3 (data series).

Each function sweeps the same configurations the paper plots and
returns structured points; the benchmark harness prints them as the
rows/series of the figure.

AMD energy accounting note: the MI250 is one *device* (MCM) with two
GCDs.  For the ``MI250:GCD`` variants only one die computes, but the
package still powers the idle sibling; device-level energy metrics
therefore charge the idle die's draw as well -- this is what makes the
paper's "using 2 GCDs ... the device is used more efficiently"
observation come out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import mean_step_power_w
from repro.data.imagenet import IMAGENET_TRAIN_IMAGES
from repro.engine.perf import CNNStepModel, LLMStepModel
from repro.errors import ConfigError
from repro.hardware.systems import get_system
from repro.models.parallelism import ParallelLayout
from repro.models.resnet import get_cnn_preset
from repro.models.transformer import get_gpt_preset
from repro.power.model import power_model_for_node
from repro.units import per_wh

#: Global batch sizes of Figure 2 (16 to 4096).
FIG2_BATCH_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
#: Global batch sizes of Figure 3 (16 to 2048).
FIG3_BATCH_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)

#: Figure 2 series: (label, system tag, data-parallel size).
FIG2_SERIES = (
    ("GH200 (JRDC)", "GH200", 1),
    ("GH200 (JEDI)", "JEDI", 4),
    ("H100 (JRDC)", "H100", 4),
    ("H100 (WestAI)", "WAIH100", 4),
    ("A100", "A100", 4),
    ("AMD MI250:GCD", "MI250", 4),
    ("AMD MI250:GPU", "MI250", 8),
)

#: Figure 3 series: (label, system tag, devices).
FIG3_SERIES = (
    ("A100", "A100", 1),
    ("H100 (JRDC)", "H100", 1),
    ("H100 (WestAI)", "WAIH100", 1),
    ("GH200 (JRDC)", "GH200", 1),
    ("GH200 (JEDI)", "JEDI", 1),
    ("AMD MI250:GCD", "MI250", 1),
    ("AMD MI250:GPU", "MI250", 2),
)


@dataclass(frozen=True)
class Fig2Point:
    """One (series, batch) point of Figure 2."""

    label: str
    system: str
    global_batch_size: int
    tokens_per_s_per_device: float
    energy_per_hour_wh: float
    tokens_per_wh: float


@dataclass(frozen=True)
class Fig3Point:
    """One (series, batch) point of Figure 3."""

    label: str
    system: str
    global_batch_size: int
    images_per_s: float  # per paper-device (MCM for AMD:GPU)
    energy_per_epoch_wh: float
    images_per_wh: float


def _idle_sibling_power_w(tag: str) -> float:
    """Idle power of the unused GCD in a single-GCD MI250 run."""
    return power_model_for_node(get_system(tag)).power(0.0)


def fig2_llm_series(
    batch_sizes: tuple[int, ...] = FIG2_BATCH_SIZES,
) -> dict[str, list[Fig2Point]]:
    """All series of Figure 2 (800M GPT on NVIDIA and AMD systems)."""
    model = get_gpt_preset("800M")
    series: dict[str, list[Fig2Point]] = {}
    for label, tag, dp in FIG2_SERIES:
        node = get_system(tag)
        step_model = LLMStepModel(node, model, ParallelLayout(dp=dp))
        points = []
        for gbs in batch_sizes:
            if gbs % (step_model.micro_batch_size * dp) != 0:
                # e.g. GBS 16 with DP 8 is impossible (paper notes this).
                continue
            step = step_model.step(gbs)
            rate = step_model.tokens_per_second_per_device(gbs)
            power = mean_step_power_w(node, step)
            points.append(
                Fig2Point(
                    label=label,
                    system=tag,
                    global_batch_size=gbs,
                    tokens_per_s_per_device=rate,
                    energy_per_hour_wh=power,  # W x 1h = Wh
                    tokens_per_wh=per_wh(rate, power),
                )
            )
        series[label] = points
    return series


def fig3_resnet_series() -> dict[str, list[Fig3Point]]:
    """All series of Figure 3 (ResNet50, single device per system)."""
    model = get_cnn_preset("resnet50")
    series: dict[str, list[Fig3Point]] = {}
    for label, tag, devices in FIG3_SERIES:
        node = get_system(tag)
        step_model = CNNStepModel(node, model, devices=devices)
        points = []
        for gbs in FIG3_BATCH_SIZES:
            if gbs % devices != 0:
                continue
            step = step_model.step(gbs // devices)
            rate = step_model.images_per_second(gbs)
            power_per_gcd = mean_step_power_w(node, step)
            # Device(=package)-level power: active dies + idle sibling.
            if label.endswith(":GCD"):
                device_power = power_per_gcd + _idle_sibling_power_w(tag)
            else:
                device_power = power_per_gcd * devices
            epoch_s = IMAGENET_TRAIN_IMAGES / rate
            energy_epoch = device_power * epoch_s / 3600.0
            points.append(
                Fig3Point(
                    label=label,
                    system=tag,
                    global_batch_size=gbs,
                    images_per_s=rate,
                    energy_per_epoch_wh=energy_epoch,
                    images_per_wh=IMAGENET_TRAIN_IMAGES / energy_epoch,
                )
            )
        series[label] = points
    return series


def fig2_rows(series: dict[str, list[Fig2Point]]) -> list[dict[str, object]]:
    """Flatten Figure 2 series into printable rows."""
    rows = []
    for label, points in series.items():
        for p in points:
            rows.append(
                {
                    "series": label,
                    "gbs": p.global_batch_size,
                    "tokens_per_s_per_device": round(p.tokens_per_s_per_device, 1),
                    "energy_per_hour_wh": round(p.energy_per_hour_wh, 2),
                    "tokens_per_wh": round(p.tokens_per_wh, 1),
                }
            )
    return rows


def fig3_rows(series: dict[str, list[Fig3Point]]) -> list[dict[str, object]]:
    """Flatten Figure 3 series into printable rows."""
    rows = []
    for label, points in series.items():
        for p in points:
            rows.append(
                {
                    "series": label,
                    "gbs": p.global_batch_size,
                    "images_per_s": round(p.images_per_s, 1),
                    "energy_per_epoch_wh": round(p.energy_per_epoch_wh, 2),
                    "images_per_wh": round(p.images_per_wh, 1),
                }
            )
    return rows

"""Regeneration of the paper's Tables II and III (Graphcore results).

Each function returns one row per batch size with exactly the paper's
columns, evaluated through the Poplar engines in closed form (the
measured path through jpwr produces the same numbers; tests check the
agreement).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.imagenet import IMAGENET_TRAIN_IMAGES
from repro.engine.poplar import (
    GPT_COMPUTE_UTILISATION,
    GPT_HOST_STREAM_S_PER_SAMPLE,
    GPT_SETUP_TIME_S,
    PoplarGPTEngine,
    PoplarResNetEngine,
)
from repro.hardware.systems import get_system
from repro.power.model import power_model_for_node

#: Batch sizes of Table II.
TABLE2_BATCH_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
#: Batch sizes of Table III.
TABLE3_BATCH_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

#: The paper's Table II entries (batch -> tokens/s, Wh/epoch/IPU).
PAPER_TABLE2 = {
    64: (64.99, 15.68),
    128: (97.21, 18.20),
    256: (129.96, 18.37),
    512: (155.72, 18.56),
    1024: (172.94, 19.07),
    2048: (183.37, 20.05),
    4096: (188.88, 21.88),
    8192: (191.86, 25.47),
    16384: (193.41, 33.00),
}

#: The paper's Table III entries (batch -> images/s, Wh/epoch).
PAPER_TABLE3 = {
    16: (1827.72, 32.09),
    32: (1857.90, 31.73),
    64: (1879.29, 31.75),
    128: (1888.11, 31.67),
    256: (1887.23, 31.58),
    512: (1891.74, 31.49),
    1024: (1893.07, 31.50),
    2048: (1889.87, 31.53),
    4096: (1891.58, 31.51),
}


@dataclass(frozen=True)
class IPUTableRow:
    """One row of Table II or III."""

    batch_size: int
    throughput: float  # tokens/s or images/s
    energy_wh: float  # per epoch (per IPU for Table II)
    efficiency_per_wh: float  # tokens/Wh or images/Wh


def table2_ipu_gpt(
    batch_sizes: tuple[int, ...] = TABLE2_BATCH_SIZES,
) -> list[IPUTableRow]:
    """Table II: 117M GPT, one epoch per batch size, IPU-POD4."""
    node = get_system("GC200")
    engine = PoplarGPTEngine(node)
    power_model = power_model_for_node(node)
    rows = []
    for b in batch_sizes:
        throughput = engine.tokens_per_second(b)
        t_iter = engine.iteration_time_s(b)
        idle_s = GPT_SETUP_TIME_S + GPT_HOST_STREAM_S_PER_SAMPLE * b
        energy_wh = (
            power_model.power(0.0) * idle_s
            + power_model.power(GPT_COMPUTE_UTILISATION) * t_iter
        ) / 3600.0
        rows.append(
            IPUTableRow(
                batch_size=b,
                throughput=throughput,
                energy_wh=energy_wh,
                efficiency_per_wh=b / energy_wh,
            )
        )
    return rows


def table3_ipu_resnet() -> list[IPUTableRow]:
    """Table III: ResNet50 on a single GC200, one ImageNet epoch."""
    node = get_system("GC200")
    engine = PoplarResNetEngine(node)
    power_model = power_model_for_node(node)
    rows = []
    for b in TABLE3_BATCH_SIZES:
        rate = engine.images_per_second(b)
        epoch_s = IMAGENET_TRAIN_IMAGES / rate
        energy_wh = power_model.power(engine.utilisation(b)) * epoch_s / 3600.0
        rows.append(
            IPUTableRow(
                batch_size=b,
                throughput=rate,
                energy_wh=energy_wh,
                efficiency_per_wh=IMAGENET_TRAIN_IMAGES / energy_wh,
            )
        )
    return rows


def table_rows_printable(rows: list[IPUTableRow], unit: str) -> list[dict[str, object]]:
    """Rows formatted like the paper's tables."""
    return [
        {
            "Batch Size": r.batch_size,
            f"{unit}/Time 1/s": round(r.throughput, 2),
            "Energy/Epoch Wh": round(r.energy_wh, 2),
            f"{unit}/Energy 1/Wh": round(r.efficiency_per_wh, 2),
        }
        for r in rows
    ]

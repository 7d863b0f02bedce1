"""Hyperparameter exploration (paper §I and §III-A3).

"In particular within the field of machine learning, having a
structured, automatic benchmarking tool to investigate the effect of
hyperparameters ... and to identify optimal settings is important" --
this module is that tool for the simulated systems: it sweeps the
micro-batch size x global-batch-size space of the LLM benchmark (or
the batch space of the CNN benchmark), respects the memory feasibility
of every point, and reports the optimum under a chosen objective
(throughput or energy efficiency).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.metrics import mean_step_power_w
from repro.engine.oom import check_cnn_memory, check_llm_memory
from repro.engine.perf import CNNStepModel, LLMStepModel
from repro.errors import ConfigError
from repro.hardware.systems import get_system
from repro.models.parallelism import ParallelLayout
from repro.models.resnet import get_cnn_preset
from repro.models.transformer import get_gpt_preset
from repro.units import per_wh


class Objective(str, enum.Enum):
    """What the exploration optimises."""

    THROUGHPUT = "throughput"
    EFFICIENCY = "efficiency"  # work per Wh


@dataclass(frozen=True)
class ExplorationPoint:
    """One evaluated hyperparameter combination."""

    micro_batch_size: int
    global_batch_size: int
    feasible: bool
    throughput: float  # 0 for infeasible points
    efficiency_per_wh: float

    def score(self, objective: Objective) -> float:
        """The point's value under an objective."""
        if objective is Objective.THROUGHPUT:
            return self.throughput
        return self.efficiency_per_wh


@dataclass(frozen=True)
class ExplorationResult:
    """A full sweep plus its optimum."""

    system: str
    points: list[ExplorationPoint]
    objective: Objective

    @property
    def best(self) -> ExplorationPoint:
        """Highest-scoring feasible point."""
        feasible = [p for p in self.points if p.feasible]
        if not feasible:
            raise ConfigError(f"{self.system}: no feasible points in the sweep")
        return max(feasible, key=lambda p: p.score(self.objective))

    def rows(self) -> list[dict[str, object]]:
        """Printable sweep rows."""
        return [
            {
                "mbs": p.micro_batch_size,
                "gbs": p.global_batch_size,
                "feasible": p.feasible,
                "throughput": round(p.throughput, 1),
                "per_wh": round(p.efficiency_per_wh, 1),
            }
            for p in self.points
        ]


def explore_llm(
    system: str,
    *,
    micro_batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16),
    objective: Objective = Objective.THROUGHPUT,
) -> ExplorationResult:
    """Sweep (micro batch x global batch) for the 800M GPT."""
    if not micro_batch_sizes:
        raise ConfigError("sweep axis must be non-empty")
    node = get_system(system)
    if node.is_ipu_pod:
        raise ConfigError("LLM exploration targets the GPU systems")
    model = get_gpt_preset("800M")
    devices = node.logical_devices_per_node
    layout = ParallelLayout(dp=devices)
    points = []
    for mbs in micro_batch_sizes:
        budget = check_llm_memory(node, model, layout, mbs)
        for gbs in (64, 256, 1024, 4096):
            if gbs % (mbs * devices) != 0 or not budget.fits:
                points.append(ExplorationPoint(mbs, gbs, False, 0.0, 0.0))
                continue
            step_model = LLMStepModel(node, model, layout, micro_batch_size=mbs)
            step = step_model.step(gbs)
            rate = step_model.tokens_per_second_per_device(gbs)
            power = mean_step_power_w(node, step)
            points.append(
                ExplorationPoint(mbs, gbs, True, rate, per_wh(rate, power))
            )
    return ExplorationResult(system=system, points=points, objective=objective)


def explore_cnn(
    system: str,
    *,
    devices: int = 1,
    batch_sizes: tuple[int, ...] = (16, 64, 256, 1024, 2048),
    objective: Objective = Objective.EFFICIENCY,
) -> ExplorationResult:
    """Sweep the batch size for ResNet50."""
    if not batch_sizes:
        raise ConfigError("sweep axis must be non-empty")
    node = get_system(system)
    if node.is_ipu_pod:
        raise ConfigError("CNN exploration targets the GPU systems")
    model = get_cnn_preset("resnet50")
    points = []
    for gbs in batch_sizes:
        if gbs % devices != 0:
            points.append(ExplorationPoint(0, gbs, False, 0.0, 0.0))
            continue
        local = gbs // devices
        if not check_cnn_memory(node, model, local).fits:
            points.append(ExplorationPoint(0, gbs, False, 0.0, 0.0))
            continue
        step_model = CNNStepModel(node, model, devices=devices)
        step = step_model.step(local)
        rate = step_model.images_per_second_per_device(gbs)
        power = mean_step_power_w(node, step)
        points.append(ExplorationPoint(0, gbs, True, rate, per_wh(rate, power)))
    return ExplorationResult(system=system, points=points, objective=objective)

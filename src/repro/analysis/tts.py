"""Time-to-solution analysis (the MLPerf-style metric, paper §II-D).

The paper deliberately measures *throughput* instead of MLPerf's
*time-to-solution* ("the downside of the time-to-solution metric ...
is its high computational cost"), while §IV-A cautions that large-batch
throughput gains "must be balanced against the potential drawback of
slower convergence".  With the loss-curve substrate
(:mod:`repro.models.lossmodel`) the simulator can afford the expensive
metric: this module combines throughput (tokens/s at a batch size)
with convergence (effective tokens to reach a target loss at that
batch size) into wall-clock and energy to solution -- making the
throughput-vs-convergence trade-off quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import mean_step_power_w
from repro.engine.perf import LLMStepModel
from repro.errors import ConfigError
from repro.hardware.systems import get_system
from repro.models.lossmodel import GPT_LOSS
from repro.models.parallelism import ParallelLayout
from repro.models.transformer import get_gpt_preset


@dataclass(frozen=True)
class TimeToSolution:
    """Wall-clock and energy to reach a target loss."""

    system: str
    global_batch_size: int
    target_loss: float
    tokens_needed: float
    hours: float
    node_energy_kwh: float

    def describe(self) -> str:
        """One-line report."""
        return (
            f"{self.system} gbs={self.global_batch_size}: "
            f"{self.tokens_needed / 1e9:.2f}B tokens, {self.hours:.1f} h, "
            f"{self.node_energy_kwh:.1f} kWh to loss {self.target_loss}"
        )


def time_to_loss(
    system: str,
    *,
    target_loss: float = 3.6,
    global_batch_size: int = 256,
) -> TimeToSolution:
    """Time and energy for one system to train the 800M GPT to a target loss."""
    node = get_system(system)
    if node.is_ipu_pod:
        raise ConfigError("time-to-solution analysis targets the GPU systems")
    devices = node.logical_devices_per_node
    layout = ParallelLayout(dp=devices)
    step_model = LLMStepModel(node, get_gpt_preset("800M"), layout)
    layout.validate_batch(global_batch_size, step_model.micro_batch_size)
    # The GPT loss curve's work unit is tokens.
    tokens_needed = GPT_LOSS.work_to_reach(target_loss, global_batch_size)
    rate = step_model.tokens_per_second(global_batch_size)
    seconds = tokens_needed / rate
    power = mean_step_power_w(node, step_model.step(global_batch_size)) * devices
    return TimeToSolution(
        system=system,
        global_batch_size=global_batch_size,
        target_loss=target_loss,
        tokens_needed=tokens_needed,
        hours=seconds / 3600.0,
        node_energy_kwh=power * seconds / 3.6e6,
    )


def batch_size_tradeoff(
    system: str,
    *,
    batch_sizes: tuple[int, ...] = (64, 256, 1024, 4096),
) -> list[TimeToSolution]:
    """The §IV-A trade-off: sweep batch sizes at fixed target loss.

    Throughput rises with the batch size, but beyond the critical batch
    each sample contributes less progress; the optimum wall-clock batch
    is interior -- this function exposes exactly where.
    """
    if not batch_sizes:
        raise ConfigError("need at least one batch size")
    return [time_to_loss(system, global_batch_size=gbs) for gbs in batch_sizes]


def optimal_batch_size(results: list[TimeToSolution]) -> TimeToSolution:
    """The sweep's wall-clock optimum."""
    if not results:
        raise ConfigError("empty sweep")
    return min(results, key=lambda r: r.hours)


def tts_rows(results: list[TimeToSolution]) -> list[dict[str, object]]:
    """Printable sweep rows."""
    return [
        {
            "system": r.system,
            "gbs": r.global_batch_size,
            "tokens_B": round(r.tokens_needed / 1e9, 2),
            "hours": round(r.hours, 2),
            "node_kwh": round(r.node_energy_kwh, 1),
        }
        for r in results
    ]

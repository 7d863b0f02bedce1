"""Training-loss curve model (scaling-law form).

The benchmarks measure throughput, not convergence, but the real
Megatron-LM and tf_cnn_benchmarks print a loss every iteration, and the
paper's §IV-A discussion weighs throughput against "the potential
drawback of slower convergence" at large batch sizes.  This module
provides a deterministic loss curve so the simulated engines can report
a realistic loss after training:

* LLM: the Chinchilla-style power law
  ``L(T) = L_inf + A / T^alpha`` in tokens seen ``T``, with a
  batch-size-dependent effective-token discount modelling the large
  batch convergence penalty the paper mentions,
* CNN: top-1-error decay in epochs with the same functional form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class LossCurve:
    """A power-law loss curve ``L(work) = floor + scale / work^alpha``.

    ``reference_batch`` sets where the large-batch discount starts: at
    batch sizes beyond it, a token contributes less effective progress
    (the critical-batch-size phenomenon).
    """

    floor: float
    scale: float
    alpha: float
    reference_batch: int = 256

    def __post_init__(self) -> None:
        if self.floor < 0 or self.scale <= 0:
            raise ConfigError("floor must be >= 0 and scale positive")
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must be in (0,1)")
        if self.reference_batch < 1:
            raise ConfigError("reference batch must be >= 1")

    def batch_discount(self, batch_size: int) -> float:
        """Effective-work multiplier in (0, 1] for a global batch size.

        1.0 up to the reference batch, then decaying logarithmically --
        doubling the batch beyond the critical size wastes a fixed
        fraction of each sample.
        """
        if batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if batch_size <= self.reference_batch:
            return 1.0
        excess_doublings = math.log2(batch_size / self.reference_batch)
        return max(0.35, 1.0 - 0.12 * excess_doublings)

    def loss(self, work: float, batch_size: int = 1) -> float:
        """Loss after ``work`` units (tokens or images) at a batch size."""
        if work < 0:
            raise ConfigError("work must be >= 0")
        effective = work * self.batch_discount(batch_size) + 1.0
        return self.floor + self.scale / effective**self.alpha

    def work_to_reach(self, target_loss: float, batch_size: int = 1) -> float:
        """Work needed to reach a target loss (the MLPerf-style
        time-to-solution inverse; raises if the target is unreachable)."""
        if target_loss <= self.floor:
            raise ConfigError(
                f"target {target_loss} is at or below the loss floor {self.floor}"
            )
        effective = (self.scale / (target_loss - self.floor)) ** (1.0 / self.alpha)
        return max(0.0, (effective - 1.0) / self.batch_discount(batch_size))


#: GPT pretraining cross-entropy (nats/token); constants give GPT-2-like
#: curves: ~10.8 at init, ~3.9 after 1B tokens at the reference batch.
GPT_LOSS = LossCurve(floor=1.7, scale=10.0, alpha=0.076, reference_batch=512)

#: ResNet50 top-1 training error over images seen; ~0.9 at init,
#: ~0.25 after 90 epochs of ImageNet.
RESNET_LOSS = LossCurve(floor=0.18, scale=1.4, alpha=0.16, reference_batch=1024)

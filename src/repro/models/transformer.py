"""GPT decoder architecture model: parameters, FLOPs, memory.

The LLM benchmark trains decoder-only GPT models (paper §III-A1).  The
preset sizes mirror the suite: 117M (Graphcore, = GPT-2 small), 800M
(NVIDIA/AMD, = GPT-2 large scale), and the provided 13B and 175B
configurations (GPT-3 layouts, "tested on NVIDIA GH200 devices").

All quantities are closed-form functions of the architecture, using the
standard accounting:

* parameters: ``12 L h^2`` per transformer stack plus ``V h`` embedding
  (rotary positional embeddings add no parameters),
* training FLOPs per token: ``6 N + 12 L s h`` (weight FLOPs forward
  2N, backward 4N; attention-matrix FLOPs quadratic in sequence
  length).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.models.precision import DEFAULT_POLICY


@dataclass(frozen=True)
class GPTConfig:
    """Architecture of one decoder-only GPT model.

    Attributes
    ----------
    name:
        Preset label (e.g. ``"800M"``).
    layers / hidden / heads:
        Transformer depth, model width, attention heads.
    vocab_size:
        Tokenizer vocabulary (GPT-2 BPE: 50257, padded to a multiple of
        128 for tensor-core-friendly GEMMs as Megatron does).
    seq_length:
        Training sequence length.
    rotary_embeddings / flash_attention:
        Optimization features of the benchmark (paper §III-A1: "all the
        possible optimization features like flash attention, rotary
        positional embeddings").
    """

    name: str
    layers: int
    hidden: int
    heads: int
    vocab_size: int = 50304
    seq_length: int = 2048
    rotary_embeddings: bool = True
    flash_attention: bool = True

    def __post_init__(self) -> None:
        if self.layers <= 0 or self.hidden <= 0 or self.heads <= 0:
            raise ConfigError(f"{self.name}: layers/hidden/heads must be positive")
        if self.hidden % self.heads != 0:
            raise ConfigError(
                f"{self.name}: hidden {self.hidden} not divisible by heads {self.heads}"
            )
        if self.seq_length <= 0:
            raise ConfigError(f"{self.name}: sequence length must be positive")

    # -- parameter counts ---------------------------------------------------

    @property
    def layer_parameters(self) -> int:
        """Parameters of one transformer layer.

        Attention: 4 h^2 (+ 4 h bias); MLP with 4x expansion: 8 h^2
        (+ 5 h bias); two LayerNorms: 4 h.
        """
        h = self.hidden
        return 12 * h * h + 13 * h

    @property
    def embedding_parameters(self) -> int:
        """Token embedding (tied with the output head)."""
        learned_positions = 0 if self.rotary_embeddings else self.seq_length
        return (self.vocab_size + learned_positions) * self.hidden

    @property
    def parameters(self) -> int:
        """Total learnable parameters (embeddings + stack + final LN)."""
        return self.embedding_parameters + self.layers * self.layer_parameters + 2 * self.hidden

    # -- FLOP counts --------------------------------------------------------------

    @property
    def flops_per_token_forward(self) -> float:
        """Forward FLOPs per token: 2N weight FLOPs + attention matrices.

        The attention-matrix term is ``4 L s h`` per token
        (QK^T and AV, 2 s h each per layer).  Flash attention changes
        memory traffic, not FLOPs.
        """
        weight_flops = 2.0 * self.parameters
        attention_flops = 4.0 * self.layers * self.seq_length * self.hidden
        return weight_flops + attention_flops

    @property
    def flops_per_token_train(self) -> float:
        """Forward+backward FLOPs per token (backward costs 2x forward)."""
        return 3.0 * self.flops_per_token_forward

    # -- memory -------------------------------------------------------------------

    def weight_bytes(self) -> int:
        """Bytes of the live (compute-precision) weight copy."""
        return self.parameters * DEFAULT_POLICY.params.bytes

    def kv_cache_bytes_per_token(self) -> int:
        """KV-cache bytes per token (inference-time metric, used by the
        extension benchmarks)."""
        return 2 * self.layers * self.hidden * DEFAULT_POLICY.compute.bytes

    def describe(self) -> str:
        """One-line architecture summary."""
        return (
            f"GPT {self.name}: {self.layers}L x {self.hidden}h x {self.heads}a, "
            f"seq {self.seq_length}, {self.parameters / 1e6:.0f}M params"
        )


def _presets() -> dict[str, GPTConfig]:
    return {
        c.name: c
        for c in [
            # GPT-2 small; the Graphcore benchmark model (paper: "only a
            # 117M parameter GPT decoder LLM was trained on Graphcore").
            GPTConfig(name="117M", layers=12, hidden=768, heads=12),
            # GPT-2 large scale; the NVIDIA/AMD benchmark model.
            GPTConfig(name="800M", layers=36, hidden=1280, heads=20),
            # The provided larger configurations (GPT-3 13B / 175B layouts).
            GPTConfig(name="13B", layers=40, hidden=5120, heads=40),
            GPTConfig(name="175B", layers=96, hidden=12288, heads=96),
        ]
    }


GPT_PRESETS: dict[str, GPTConfig] = _presets()


def get_gpt_preset(name: str) -> GPTConfig:
    """Look up one of the suite's GPT model sizes."""
    try:
        return GPT_PRESETS[name]
    except KeyError:
        valid = ", ".join(GPT_PRESETS)
        raise ConfigError(f"unknown GPT preset {name!r}; valid: {valid}") from None

"""CNN architecture models for the ResNet50 benchmark.

The ResNet50 benchmark (paper §III-A2) trains ResNet50 by default "but
other models like inception3, vgg16, and alexnet can also be utilized"
(tf_cnn_benchmarks), and the Graphcore variant also offers ResNet18/34.
The presets below carry the published parameter and FLOP counts for
224x224 ImageNet inputs; activation footprints are calibrated per-image
byte counts for mixed-precision training with XLA fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.models.precision import DEFAULT_POLICY


@dataclass(frozen=True)
class CNNConfig:
    """Architecture of one image-classification CNN.

    Attributes
    ----------
    parameters:
        Learnable parameters.
    flops_per_image_forward:
        Forward-pass FLOPs for one 224x224 image.
    activation_bytes_per_image:
        Peak live activation bytes per image during mixed-precision
        training (after framework fusion).  Drives the OOM boundaries
        of Figure 4.
    image_pixels:
        Input pixels (H*W*C) -- sets host data-loading volume.
    """

    name: str
    parameters: int
    flops_per_image_forward: float
    activation_bytes_per_image: int
    image_pixels: int = 224 * 224 * 3

    def __post_init__(self) -> None:
        if self.parameters <= 0 or self.flops_per_image_forward <= 0:
            raise ConfigError(f"{self.name}: sizes must be positive")
        if self.activation_bytes_per_image <= 0:
            raise ConfigError(f"{self.name}: activation bytes must be positive")

    @property
    def flops_per_image_train(self) -> float:
        """Forward+backward FLOPs per image (backward costs 2x forward)."""
        return 3.0 * self.flops_per_image_forward

    def weight_bytes(self) -> int:
        """Bytes of the compute-precision weight copy."""
        return self.parameters * DEFAULT_POLICY.params.bytes

    def describe(self) -> str:
        """One-line architecture summary."""
        return (
            f"{self.name}: {self.parameters / 1e6:.1f}M params, "
            f"{self.flops_per_image_forward / 1e9:.1f} GFLOP/image fwd"
        )


def _presets() -> dict[str, CNNConfig]:
    mb = 1024 * 1024
    return {
        c.name: c
        for c in [
            # The benchmark default.  28 MB/image activation footprint is
            # calibrated so a 40 GB A100 fits a local batch of 1024 but
            # OOMs at 2048 (Figure 4g pattern), while the 64 GB MI250
            # GCD still fits 2048 (Figure 3 sweeps it to 2048).
            CNNConfig(
                name="resnet50",
                parameters=25_557_032,
                flops_per_image_forward=4.1e9,
                activation_bytes_per_image=28 * mb,
            ),
            CNNConfig(
                name="resnet18",
                parameters=11_689_512,
                flops_per_image_forward=1.8e9,
                activation_bytes_per_image=12 * mb,
            ),
            CNNConfig(
                name="resnet34",
                parameters=21_797_672,
                flops_per_image_forward=3.6e9,
                activation_bytes_per_image=18 * mb,
            ),
            CNNConfig(
                name="inception3",
                parameters=23_834_568,
                flops_per_image_forward=5.7e9,
                activation_bytes_per_image=34 * mb,
                image_pixels=299 * 299 * 3,
            ),
            CNNConfig(
                name="vgg16",
                parameters=138_357_544,
                flops_per_image_forward=15.5e9,
                activation_bytes_per_image=46 * mb,
            ),
            CNNConfig(
                name="alexnet",
                parameters=60_965_224,
                flops_per_image_forward=0.72e9,
                activation_bytes_per_image=5 * mb,
            ),
        ]
    }


CNN_PRESETS: dict[str, CNNConfig] = _presets()


def get_cnn_preset(name: str) -> CNNConfig:
    """Look up one of the suite's CNN models."""
    try:
        return CNN_PRESETS[name]
    except KeyError:
        valid = ", ".join(CNN_PRESETS)
        raise ConfigError(f"unknown CNN preset {name!r}; valid: {valid}") from None

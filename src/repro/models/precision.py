"""Numeric precision policies.

Both CARAML benchmarks train in mixed precision (paper §III-A):
parameters and activations in a 16-bit format with float32 master
weights and optimizer states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DType(str, enum.Enum):
    """Floating-point storage formats and their widths."""

    FP32 = "fp32"
    FP16 = "fp16"
    BF16 = "bf16"
    FP8 = "fp8"

    @property
    def bytes(self) -> int:
        """Storage bytes per element."""
        return {
            DType.FP32: 4,
            DType.FP16: 2,
            DType.BF16: 2,
            DType.FP8: 1,
        }[self]


@dataclass(frozen=True)
class MixedPrecisionPolicy:
    """Which dtype each tensor class uses.

    The default is the Megatron/TensorFlow mixed-precision recipe:
    fp16 compute and activations.  Master weights and optimizer states
    are fp32 in every policy.
    """

    compute: DType = DType.FP16
    params: DType = DType.FP16
    grads: DType = DType.FP16

    @property
    def uses_mixed_precision(self) -> bool:
        """True when compute precision is below the fp32 master copy's."""
        return self.compute.bytes < DType.FP32.bytes


#: The policy both CARAML benchmarks use.
DEFAULT_POLICY = MixedPrecisionPolicy()

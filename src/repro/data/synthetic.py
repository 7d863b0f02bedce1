"""Synthetic data placement (the benchmarks' ``synthetic`` tag).

Both benchmarks can run on synthetic data instead of OSCAR/ImageNet
(paper Appendix: "If tag synthetic is not given, the benchmark will use
the tokenized OSCAR data").  On Graphcore, synthetic image data can be
"generated either on the host CPU and transferred to the IPU or
generated directly on the IPU" -- the placement changes whether the
host link is charged, which :mod:`repro.engine.poplar` consumes
(``host_stream_time_s``).
"""

from __future__ import annotations

import enum


class SyntheticPlacement(str, enum.Enum):
    """Where synthetic data is generated (IPU benchmark option)."""

    HOST = "host"  # generated on CPU, transferred over the host link
    DEVICE = "device"  # generated on the accelerator, no transfer

"""Disaggregated prefill/decode pools: the KV-state handoff cost model.

In a disaggregated deployment (the llm-d prefill/decode-disaggregated
deployer scenario), prefill replicas process prompts at full compute
utilisation and stream the resulting KV cache to a decode replica over
the cluster interconnect.  The handoff is not free:

* **latency** — link base latency plus the KV bytes over the link's
  usable (unidirectional) bandwidth, straight from the existing
  :class:`~repro.hardware.interconnect.LinkSpec` catalogue,
* **energy** — the SerDes/switch cost of moving the bytes, modelled at
  a published per-bit figure.

Both are charged by the cluster simulator per handoff, so the
prefill/decode split only wins when the specialisation gain beats the
transfer tax — the trade the campaign sweeps are meant to expose.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.interconnect import LinkSpec

#: Energy to move one bit across the cluster fabric, in picojoules.
#: Published SerDes + switch figures for NVLink/InfiniBand-class links
#: cluster around 5-15 pJ/bit end to end; 10 is the round middle.
KV_TRANSFER_PJ_PER_BIT = 10.0

#: Joules per picojoule-bit-count: pJ -> J.
_PJ_TO_J = 1e-12

#: Seconds-to-Wh conversion.
_JOULES_PER_WH = 3600.0


@dataclass(frozen=True)
class DisaggregationSpec:
    """Shape of a disaggregated prefill/decode deployment.

    Attributes
    ----------
    prefill_replicas / decode_replicas:
        Pool sizes; the cluster's replica count is their sum.

    The KV handoff crosses the link the cluster simulator picks from
    the engine's node.
    """

    prefill_replicas: int
    decode_replicas: int

    def __post_init__(self) -> None:
        if self.prefill_replicas < 1 or self.decode_replicas < 1:
            raise ConfigError(
                "disaggregation needs at least one prefill and one "
                "decode replica"
            )

    @property
    def total_replicas(self) -> int:
        """Replicas across both pools."""
        return self.prefill_replicas + self.decode_replicas


def transfer_time_s(kv_bytes: float, link: LinkSpec) -> float:
    """Latency of moving ``kv_bytes`` of KV state over ``link``."""
    if kv_bytes < 0:
        raise ConfigError("transfer size must be >= 0")
    if link.bandwidth <= 0:
        raise ConfigError("KV handoff needs a link with bandwidth")
    return link.latency_s + kv_bytes / link.unidirectional_bandwidth


def transfer_energy_wh(kv_bytes: float) -> float:
    """Fabric energy of moving ``kv_bytes``, in Wh."""
    if kv_bytes < 0:
        raise ConfigError("transfer size must be >= 0")
    return kv_bytes * 8.0 * KV_TRANSFER_PJ_PER_BIT * _PJ_TO_J / _JOULES_PER_WH


@dataclass(frozen=True)
class KVTransfer:
    """One in-flight KV handoff from a prefill to a decode replica."""

    request_index: int
    source: int
    target: int
    kv_bytes: float
    started_s: float
    done_at_s: float
    energy_wh: float

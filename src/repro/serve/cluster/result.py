"""Cluster-level records and the cluster serving summary.

Extends the single-engine serving result with what only exists at
cluster scale: which replica served each request (and, disaggregated,
which pair), prefix-cache hits, KV-transfer time, per-replica
utilisation/energy breakdowns, the router's **load imbalance**
(max/mean busy utilisation across replicas), and an energy-per-request
figure that includes idle-replica, spin-up and transfer energy — the
MLPerf-Power framing where deployed-system overheads count.  A cluster
run returns the same :class:`~repro.serve.result.ServeResult` as a
single engine, carrying these records and this summary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.cluster.replica import ReplicaStats
from repro.serve.result import RequestRecord, ServeSummary


@dataclass(frozen=True)
class ClusterRecord:
    """One completed request plus its cluster-level routing detail.

    ``prefill_replica`` and ``decode_replica`` coincide on a unified
    cluster; they differ (and ``transfer_s`` is positive) on a
    disaggregated one.
    """

    record: RequestRecord
    prefill_replica: int
    decode_replica: int
    prefix_hit: bool
    transfer_s: float = 0.0

    def to_dict(self) -> dict:
        """The request record flattened with the routing fields."""
        out = self.record.to_dict()
        out["prefill_replica"] = self.prefill_replica
        out["decode_replica"] = self.decode_replica
        out["prefix_hit"] = self.prefix_hit
        out["transfer_s"] = self.transfer_s
        return out


@dataclass(frozen=True)
class ClusterSummary:
    """Aggregate outcome of one cluster serving run.

    ``serve`` carries the request-level latency/goodput aggregation
    (same shape as a single-engine run); the cluster fields add the
    fleet view.  ``energy_wh`` here is the *total* cluster energy —
    busy, idle, spin-up and KV-transfer — which is what
    ``energy_per_request_wh`` divides, making overprovisioning visible.
    """

    serve: ServeSummary
    router: str
    replicas: tuple[ReplicaStats, ...]
    replicas_max: int
    disaggregated: bool
    transfers: int
    transfer_s_total: float
    transfer_energy_wh: float
    spinups: int

    @property
    def busy_energy_wh(self) -> float:
        """Energy drawn while replicas ran prefill/decode phases."""
        return sum(r.busy_energy_wh for r in self.replicas)

    @property
    def idle_energy_wh(self) -> float:
        """Energy drawn by powered-on but idle replicas."""
        return sum(r.idle_energy_wh for r in self.replicas)

    @property
    def spinup_energy_wh(self) -> float:
        """Energy spent spinning replicas up."""
        return sum(r.spinup_energy_wh for r in self.replicas)

    @property
    def energy_wh(self) -> float:
        """Total cluster energy: replicas plus KV transfers."""
        return (
            sum(r.energy_wh for r in self.replicas) + self.transfer_energy_wh
        )

    @property
    def energy_per_request_wh(self) -> float:
        """Honest Wh/request: total cluster energy over completions."""
        if self.serve.completed == 0:
            return 0.0
        return self.energy_wh / self.serve.completed

    @property
    def tokens_per_wh(self) -> float:
        """Generated tokens per Wh of total cluster energy."""
        e = self.energy_wh
        return self.serve.generated_tokens / e if e > 0 else 0.0

    @property
    def replica_seconds(self) -> float:
        """Total powered-on replica time (the capacity bill)."""
        return sum(r.on_s for r in self.replicas)

    @property
    def load_imbalance(self) -> float:
        """Max over mean busy utilisation across ever-on replicas.

        1.0 is a perfectly balanced router; the further above 1, the
        more one replica carried the cluster.  0.0 when no replica was
        ever busy.
        """
        fractions = [r.busy_fraction for r in self.replicas if r.on_s > 0]
        if not fractions:
            return 0.0
        mean = sum(fractions) / len(fractions)
        return max(fractions) / mean if mean > 0 else 0.0

    @property
    def prefix_hits(self) -> int:
        """Prefill prefix-cache hits across all replicas."""
        return sum(r.prefix_hits for r in self.replicas)

    @property
    def prefix_hit_rate(self) -> float:
        """Hits over prefills (0.0 when nothing was prefilled)."""
        prefills = sum(r.prefills for r in self.replicas)
        return self.prefix_hits / prefills if prefills else 0.0

    def to_dict(self) -> dict:
        """Flat numeric mapping for stores and ``TrainResult.extra``.

        Starts from the request-level summary and overrides its energy
        figures with the cluster-honest totals.
        """
        out = self.serve.to_dict()
        out["energy_wh"] = self.energy_wh
        out["energy_per_request_wh"] = self.energy_per_request_wh
        out["tokens_per_wh"] = self.tokens_per_wh
        out["cluster_replicas_max"] = float(self.replicas_max)
        out["cluster_replica_seconds"] = self.replica_seconds
        out["cluster_busy_energy_wh"] = self.busy_energy_wh
        out["cluster_idle_energy_wh"] = self.idle_energy_wh
        out["cluster_spinup_energy_wh"] = self.spinup_energy_wh
        out["cluster_transfer_energy_wh"] = self.transfer_energy_wh
        out["cluster_load_imbalance"] = self.load_imbalance
        out["cluster_prefix_hits"] = float(self.prefix_hits)
        out["cluster_prefix_hit_rate"] = self.prefix_hit_rate
        out["cluster_transfers"] = float(self.transfers)
        out["cluster_transfer_s_total"] = self.transfer_s_total
        out["cluster_spinups"] = float(self.spinups)
        out["cluster_disaggregated"] = float(self.disaggregated)
        return out

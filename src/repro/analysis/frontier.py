"""Pareto frontier extraction and SLO-driven config recommendation.

CARAML and MLPerf Power both frame the deliverable of an accelerator
evaluation as an operating-point *frontier* — not a grid of raw rows.
This module turns completed serve-campaign rows into that frontier and
answers the prescriptive question behind the ROADMAP's recommender
("find the cheapest config meeting 200 ms TTFT on GH200"):

* :func:`pareto_frontier` — the non-dominated set on
  (SLO attainment ↑, energy per request ↓), deterministically ordered,
* :func:`recommend` — given an attainment goal, the minimum-energy and
  minimum-replica configurations that reach it.

Only **exact** rows belong here: the search driver
(:mod:`repro.campaign.search`) feeds this module full-length runs
byte-identical to exhaustive grid execution, never screening
estimates (the pruning-safety contract in ARCHITECTURE.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FrontierPoint:
    """One configuration's position in the attainment × energy plane.

    ``replicas`` is the fleet size the config used (1 for the
    single-engine simulator) so the recommender can minimize hardware
    as well as energy; ``source`` carries the store key (or any other
    provenance tag) of the row behind the point.
    """

    slo_attainment: float
    energy_per_request_wh: float
    replicas: int = 1
    parameters: dict = field(default_factory=dict)
    source: str = ""

    @classmethod
    def from_row(cls, row) -> "FrontierPoint | None":
        """A point from a completed campaign row, or None if unusable.

        Rows without the two metrics (non-serve steps, failed or OOM
        runs) and rows that completed zero requests are excluded — a
        config that served nothing has no meaningful energy per
        request and must not dominate anything.
        """
        outputs = row.outputs
        attainment = outputs.get("slo_attainment")
        energy = outputs.get("energy_per_request_wh")
        completed = outputs.get("completed_requests", outputs.get("completed"))
        if not isinstance(attainment, (int, float)) or not isinstance(
            energy, (int, float)
        ):
            return None
        if isinstance(completed, (int, float)) and completed <= 0:
            return None
        parameters = dict(getattr(row, "parameters", {}) or {})
        replicas = outputs.get("cluster_replicas_max", parameters.get("replicas", 1))
        try:
            replicas = int(float(replicas))
        except (TypeError, ValueError):
            replicas = 1
        return cls(
            slo_attainment=float(attainment),
            energy_per_request_wh=float(energy),
            replicas=max(1, replicas),
            parameters=parameters,
            source=str(getattr(row, "key", "")),
        )

    def label(self) -> str:
        """Compact human-readable parameter summary."""
        interesting = (
            "system", "replicas", "router", "batch_cap", "queue_capacity",
            "arrival_rate",
        )
        parts = [
            f"{name}={self.parameters[name]}"
            for name in interesting
            if name in self.parameters
        ]
        return " ".join(parts) if parts else (self.source[:12] or "config")


def pareto_frontier(points: list[FrontierPoint]) -> list[FrontierPoint]:
    """The non-dominated subset, sorted by descending attainment.

    Deterministic under ties: points are pre-sorted by (attainment
    desc, energy asc, source) and a sweep keeps each point that beats
    the lowest energy seen so far.  Duplicate (attainment, energy)
    positions all survive — they are genuinely mutually non-dominated.
    """
    ordered = sorted(
        points,
        key=lambda p: (-p.slo_attainment, p.energy_per_request_wh, p.source),
    )
    frontier: list[FrontierPoint] = []
    best_energy = float("inf")
    for point in ordered:
        if point.energy_per_request_wh < best_energy:
            frontier.append(point)
            best_energy = point.energy_per_request_wh
        elif (
            frontier
            and point.energy_per_request_wh == best_energy
            and point.slo_attainment == frontier[-1].slo_attainment
        ):
            frontier.append(point)
    return frontier


def frontier_rows(points: list[FrontierPoint]) -> list[dict]:
    """The frontier as flat report/CSV-ready dicts."""
    return [
        {
            "config": p.label(),
            "slo_attainment": round(p.slo_attainment, 4),
            "energy_per_request_wh": round(p.energy_per_request_wh, 6),
            "replicas": p.replicas,
        }
        for p in pareto_frontier(points)
    ]


@dataclass(frozen=True)
class Recommendation:
    """The recommender's answer for one attainment goal.

    ``min_energy`` is the cheapest-per-request config attaining the
    goal; ``min_replicas`` the smallest fleet doing so (energy breaks
    ties).  Both are None when no evaluated config attains the goal —
    the honest answer, not a least-bad fallback.
    """

    attainment_goal: float
    min_energy: FrontierPoint | None
    min_replicas: FrontierPoint | None
    candidates: int = 0

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"SLO attainment goal {self.attainment_goal:.0%} "
            f"({self.candidates} attaining config(s)):"
        ]
        if self.min_energy is None:
            lines.append("  no evaluated configuration attains the goal")
            return "\n".join(lines)
        lines.append(
            f"  min energy:   {self.min_energy.label()} "
            f"({self.min_energy.energy_per_request_wh:.6f} Wh/request, "
            f"attainment {self.min_energy.slo_attainment:.1%})"
        )
        if self.min_replicas is not None:
            lines.append(
                f"  min replicas: {self.min_replicas.label()} "
                f"({self.min_replicas.replicas} replica(s), "
                f"{self.min_replicas.energy_per_request_wh:.6f} Wh/request)"
            )
        return "\n".join(lines)


def recommend(
    points: list[FrontierPoint], attainment_goal: float = 0.99
) -> Recommendation:
    """Min-energy and min-replica configs attaining the goal.

    Deterministic: ties resolve by (energy, replicas, source) for the
    energy pick and (replicas, energy, source) for the replica pick.
    """
    attaining = [p for p in points if p.slo_attainment >= attainment_goal]
    if not attaining:
        return Recommendation(
            attainment_goal=attainment_goal, min_energy=None, min_replicas=None
        )
    min_energy = min(
        attaining, key=lambda p: (p.energy_per_request_wh, p.replicas, p.source)
    )
    min_replicas = min(
        attaining, key=lambda p: (p.replicas, p.energy_per_request_wh, p.source)
    )
    return Recommendation(
        attainment_goal=attainment_goal,
        min_energy=min_energy,
        min_replicas=min_replicas,
        candidates=len(attaining),
    )


def points_from_rows(rows) -> list[FrontierPoint]:
    """Frontier points of the usable completed rows in ``rows``."""
    points = []
    for row in rows:
        if getattr(row, "status", "completed") != "completed":
            continue
        point = FrontierPoint.from_row(row)
        if point is not None:
            points.append(point)
    return points

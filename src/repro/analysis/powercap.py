"""Power-cap frontier analysis and the energy-aware cap scheduler.

The paper's signature power experiment: sweep the device power cap
below TDP and chart throughput against energy-per-token.  Because the
DVFS law makes throughput fall sublinearly (slope ``1/alpha``) while
power falls linearly, tokens/Wh *improves* below TDP until static draw
and per-step overheads take over — the frontier has a knee, and the
efficiency-optimal operating point sits strictly below TDP.

Three layers:

* **Sweep** — :class:`PowercapScenario` expands to cap × batch
  campaigns per system (watt ladders derive from each device's TDP, so
  the axes stay physically meaningful) that run through the exact-cache
  campaign executor; re-running a seeded sweep is a pure cache walk.
* **Frontier** — :func:`points_from_rows` / :func:`frontier_table`
  turn completed rows into the throughput-vs-energy-per-token frontier;
  :func:`knee_point` picks the max-curvature elbow and
  :func:`optimal_point` the tokens/Wh maximum.
* **Scheduler** — :func:`energy_aware_schedule` consumes a serve-side
  cap sweep plus a grid :class:`~repro.analysis.carbon.IntensityTimeseries`
  and picks a per-window (uniform across the symmetric replica fleet)
  cap: the fastest configuration that fits a gCO₂-per-request budget,
  falling back to the cleanest SLO-compliant one when no cap fits.
  Reported against the no-cap baseline in Wh and gCO₂ per request.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.carbon import IntensityTimeseries, SiteProfile, get_site
from repro.campaign.executor import IsolatingExecutor
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, WorkloadSpec
from repro.campaign.store import JsonlStore, ResultStore
from repro.errors import ConfigError
from repro.hardware.systems import get_system
from repro.power.dvfs import frequency_model_for_node


# -- sweep scenario ----------------------------------------------------------


def _check_cap_fractions(cap_fractions: tuple[float, ...]) -> None:
    if not cap_fractions:
        raise ConfigError("powercap scenario needs cap fractions")
    for f in cap_fractions:
        if not 0.0 < f <= 1.0:
            raise ConfigError(f"cap fractions must be in (0, 1], got {f}")


def cap_ladder(system: str, cap_fractions: tuple[float, ...]) -> tuple[str, ...]:
    """The ``power_cap`` axis of one system, in watts.

    Fractions of the device TDP; 1.0 maps to ``"0"`` (the uncapped
    baseline point).  Caps below the device's minimum enforceable
    limit are clamped up to it — a driver would refuse them.
    """
    node = get_system(system)
    min_cap = frequency_model_for_node(node).min_cap_watts
    values = []
    for fraction in cap_fractions:
        if fraction >= 1.0:
            values.append("0")
            continue
        cap = max(node.device_tdp_watts * fraction, min_cap)
        values.append(f"{cap:g}")
    # Clamping can collide neighbouring fractions; keep first wins.
    return tuple(dict.fromkeys(values))


def _run_specs(specs, store: ResultStore | None) -> list:
    """Completed rows of ``specs``; a throwaway store when none is given."""
    if store is None:
        with tempfile.TemporaryDirectory() as tmp:
            return _run_specs(specs, JsonlStore(Path(tmp) / "sweep.jsonl"))
    runner = CampaignRunner(store, executor=IsolatingExecutor())
    rows = []
    for spec in specs:
        rows.extend(runner.run(spec).rows)
    return rows


@dataclass(frozen=True)
class PowercapScenario:
    """The cap × batch × system training sweep behind the frontier."""

    systems: tuple[str, ...] = ("H100", "GH200")
    model_size: str = "800M"
    global_batch_sizes: tuple[int, ...] = (128, 256)
    cap_fractions: tuple[float, ...] = (1.0, 0.85, 0.7, 0.55, 0.45)
    exit_duration_s: float = 20.0

    def __post_init__(self) -> None:
        if not self.systems:
            raise ConfigError("powercap scenario needs at least one system")
        _check_cap_fractions(self.cap_fractions)
        for b in self.global_batch_sizes:
            if b <= 0:
                raise ConfigError(f"global batch sizes must be positive, got {b}")
        if self.exit_duration_s <= 0:
            raise ConfigError(
                f"exit duration must be positive, got {self.exit_duration_s:g} s"
            )

    def spec(self, system: str) -> CampaignSpec:
        """The one-system cap × batch campaign."""
        return CampaignSpec(
            name=f"powercap-{system}",
            systems=(system,),
            workloads=(
                WorkloadSpec.of_kind(
                    "llm",
                    name="capsweep",
                    axes={
                        "power_cap": list(cap_ladder(system, self.cap_fractions)),
                        "global_batch_size": [
                            str(b) for b in self.global_batch_sizes
                        ],
                    },
                    fixed={
                        "model_size": self.model_size,
                        "exit_duration": f"{self.exit_duration_s:g}",
                        "use_synthetic": "true",
                    },
                ),
            ),
        )

    def specs(self) -> tuple[CampaignSpec, ...]:
        """One campaign per system (watt ladders differ per device)."""
        return tuple(self.spec(system) for system in self.systems)


def run_powercap_sweep(
    scenario: PowercapScenario | None = None,
    store: ResultStore | None = None,
):
    """Run the scenario's campaigns; returns the completed rows.

    With a persistent ``store`` the sweep is resumable and a re-run is
    a pure cache walk; without one it runs against a throwaway store.
    """
    return _run_specs((scenario or PowercapScenario()).specs(), store)


# -- frontier ----------------------------------------------------------------


@dataclass(frozen=True)
class CapPoint:
    """One (system, cap, batch) operating point of the frontier."""

    system: str
    power_cap_w: float  # 0 = uncapped (device TDP)
    global_batch_size: int
    throughput_tok_s: float
    mean_power_w: float
    tokens_per_wh: float

    @property
    def energy_per_token_wh(self) -> float:
        """Device energy per token (the frontier's y axis)."""
        return 1.0 / self.tokens_per_wh

    def cap_label(self, tdp_w: float | None = None) -> str:
        """``"uncapped"`` or the cap in watts (with % of TDP if known)."""
        if self.power_cap_w <= 0:
            return "uncapped"
        label = f"{self.power_cap_w:g} W"
        if tdp_w:
            label += f" ({self.power_cap_w / tdp_w:.0%} TDP)"
        return label


def points_from_rows(rows) -> list[CapPoint]:
    """Cap points of the usable completed training rows."""
    points = []
    for row in rows:
        if getattr(row, "status", "completed") != "completed":
            continue
        outputs = row.outputs
        throughput = outputs.get("throughput_tokens_per_s")
        eff = outputs.get("efficiency_per_wh")
        power = outputs.get("mean_power_per_device_w", 0.0)
        if not isinstance(throughput, (int, float)) or not isinstance(
            eff, (int, float)
        ):
            continue
        if throughput <= 0 or eff <= 0:
            continue
        params = dict(getattr(row, "parameters", {}) or {})
        try:
            cap = float(params.get("power_cap", "0"))
            gbs = int(float(params.get("global_batch_size", "0")))
        except (TypeError, ValueError):
            continue
        points.append(
            CapPoint(
                system=str(params.get("system", "")),
                power_cap_w=cap,
                global_batch_size=gbs,
                throughput_tok_s=float(throughput),
                mean_power_w=float(power),
                tokens_per_wh=float(eff),
            )
        )
    return points


def best_per_cap(points: list[CapPoint]) -> list[CapPoint]:
    """One point per (system, cap): the most efficient batch size.

    The frontier compares *operating points*, so each cap is
    represented by its best batch configuration (ties break to the
    larger batch, then are deterministic by construction).
    """
    best: dict[tuple[str, float], CapPoint] = {}
    for p in points:
        key = (p.system, p.power_cap_w)
        held = best.get(key)
        if (
            held is None
            or (p.tokens_per_wh, p.global_batch_size)
            > (held.tokens_per_wh, held.global_batch_size)
        ):
            best[key] = p
    return sorted(
        best.values(), key=lambda p: (p.system, -_effective_cap(p))
    )


def _effective_cap(p: CapPoint | ServeCapPoint) -> float:
    """Sort key treating uncapped (0) as the highest cap."""
    return float("inf") if p.power_cap_w <= 0 else p.power_cap_w


def optimal_point(points: list[CapPoint]) -> CapPoint:
    """The tokens/Wh-optimal operating point."""
    if not points:
        raise ConfigError("no cap points to choose an optimum from")
    return max(points, key=lambda p: (p.tokens_per_wh, _effective_cap(p)))


def knee_point(points: list[CapPoint]) -> CapPoint | None:
    """The elbow of the throughput-vs-energy-per-token frontier.

    Max-distance-to-chord: normalize both axes to [0, 1], draw the
    chord between the slowest and fastest operating points, and return
    the point farthest from it — the spot where giving up a little
    throughput stops buying much efficiency.  None with fewer than
    three points (a chord has no interior).
    """
    if len(points) < 3:
        return None
    ordered = sorted(points, key=lambda p: p.throughput_tok_s)
    x0, x1 = ordered[0].throughput_tok_s, ordered[-1].throughput_tok_s
    y0, y1 = (
        min(p.energy_per_token_wh for p in ordered),
        max(p.energy_per_token_wh for p in ordered),
    )
    if x1 <= x0 or y1 <= y0:
        return None

    def norm(p: CapPoint) -> tuple[float, float]:
        return (
            (p.throughput_tok_s - x0) / (x1 - x0),
            (p.energy_per_token_wh - y0) / (y1 - y0),
        )

    ax, ay = norm(ordered[0])
    bx, by = norm(ordered[-1])
    best, best_d = None, 0.0
    for p in ordered[1:-1]:
        px, py = norm(p)
        # Perpendicular distance to the chord (unit-square geometry).
        d = abs((bx - ax) * (ay - py) - (ax - px) * (by - ay))
        if d > best_d:
            best, best_d = p, d
    return best


def frontier_table(points: list[CapPoint]) -> list[dict]:
    """Per-system frontier rows (one per cap, best batch), marked.

    ``pick`` flags each system's tokens/Wh optimum (``optimal``) and
    frontier knee (``knee``); the acceptance check that the optimum
    sits strictly below TDP reads straight off this table.
    """
    if not points:
        raise ConfigError(
            "no usable cap points: every workpackage of the sweep failed"
        )
    rows: list[dict] = []
    per_cap = best_per_cap(points)
    for system in sorted({p.system for p in per_cap}):
        mine = [p for p in per_cap if p.system == system]
        tdp = get_system(system).device_tdp_watts if system else None
        optimum = optimal_point(mine)
        knee = knee_point(mine)
        for p in sorted(mine, key=_effective_cap, reverse=True):
            picks = []
            if p == optimum:
                picks.append("optimal")
            if knee is not None and p == knee:
                picks.append("knee")
            rows.append(
                {
                    "system": system,
                    "power_cap": p.cap_label(tdp),
                    "batch": p.global_batch_size,
                    "tokens_per_s": round(p.throughput_tok_s, 1),
                    "mean_power_w": round(p.mean_power_w, 1),
                    "energy_per_token_uwh": round(
                        p.energy_per_token_wh * 1e6, 4
                    ),
                    "tokens_per_wh": round(p.tokens_per_wh, 1),
                    "pick": "+".join(picks),
                }
            )
    return rows


# -- energy-aware serve-cap scheduling ---------------------------------------


@dataclass(frozen=True)
class ServeCapScenario:
    """The serve-side cap sweep the scheduler chooses from."""

    system: str = "H100"
    model_size: str = "800M"
    cap_fractions: tuple[float, ...] = (1.0, 0.8, 0.6, 0.45)
    arrival_rate: float = 8.0
    requests: int = 64
    batch_cap: int = 16
    generate_tokens: int = 64
    slo_ttft_ms: float = 1000.0
    slo_e2e_ms: float = 20000.0

    def __post_init__(self) -> None:
        _check_cap_fractions(self.cap_fractions)
        for name, value in (
            ("arrival rate", self.arrival_rate),
            ("requests", self.requests),
            ("batch cap", self.batch_cap),
            ("generate tokens", self.generate_tokens),
        ):
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value:g}")
        for name, value in (
            ("TTFT SLO", self.slo_ttft_ms),
            ("E2E SLO", self.slo_e2e_ms),
        ):
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value:g} ms")

    def spec(self) -> CampaignSpec:
        """The one-system serve cap sweep campaign."""
        return CampaignSpec(
            name=f"powercap-serve-{self.system}",
            systems=(self.system,),
            workloads=(
                WorkloadSpec.of_kind(
                    "serve",
                    name="servecap",
                    axes={
                        "power_cap": list(cap_ladder(self.system, self.cap_fractions))
                    },
                    fixed={
                        "model_size": self.model_size,
                        "arrival_rate": f"{self.arrival_rate:g}",
                        "requests": str(self.requests),
                        "batch_cap": str(self.batch_cap),
                        "generate_tokens": str(self.generate_tokens),
                        "slo_ttft_ms": f"{self.slo_ttft_ms:g}",
                        "slo_e2e_ms": f"{self.slo_e2e_ms:g}",
                    },
                ),
            ),
        )


@dataclass(frozen=True)
class ServeCapPoint:
    """One serve operating point: cap, goodput, SLO, Wh/request."""

    system: str
    power_cap_w: float  # 0 = uncapped
    goodput_tok_s: float
    slo_attainment: float
    wh_per_request: float


def serve_points_from_rows(rows) -> list[ServeCapPoint]:
    """Serve cap points of the usable completed rows."""
    points = []
    for row in rows:
        if getattr(row, "status", "completed") != "completed":
            continue
        outputs = row.outputs
        energy = outputs.get("energy_per_request_wh")
        goodput = outputs.get("goodput_tokens_per_s")
        attainment = outputs.get("slo_attainment")
        if not all(
            isinstance(v, (int, float)) for v in (energy, goodput, attainment)
        ):
            continue
        if energy <= 0:
            continue
        params = dict(getattr(row, "parameters", {}) or {})
        try:
            cap = float(params.get("power_cap", "0"))
        except (TypeError, ValueError):
            continue
        points.append(
            ServeCapPoint(
                system=str(params.get("system", "")),
                power_cap_w=cap,
                goodput_tok_s=float(goodput),
                slo_attainment=float(attainment),
                wh_per_request=float(energy),
            )
        )
    return points


def run_serve_cap_sweep(
    scenario: ServeCapScenario | None = None,
    store: ResultStore | None = None,
) -> list[ServeCapPoint]:
    """Run the serve cap sweep; returns its operating points."""
    spec = (scenario or ServeCapScenario()).spec()
    return serve_points_from_rows(_run_specs((spec,), store))


@dataclass(frozen=True)
class ScheduleWindow:
    """One grid window's cap decision and its per-request accounting."""

    start_s: float
    end_s: float
    gco2_per_kwh: float
    cap: ServeCapPoint
    baseline: ServeCapPoint

    def _gco2(self, point: ServeCapPoint, pue: float) -> float:
        return point.wh_per_request * pue * self.gco2_per_kwh / 1000.0

    def gco2_per_request(self, pue: float) -> float:
        """Site-level emissions per request under the chosen cap."""
        return self._gco2(self.cap, pue)

    def baseline_gco2_per_request(self, pue: float) -> float:
        """Site-level emissions per request uncapped."""
        return self._gco2(self.baseline, pue)


@dataclass(frozen=True)
class EnergyAwareReport:
    """The scheduler's decisions plus fleet-level savings."""

    site: SiteProfile
    budget_gco2_per_request: float
    attainment_goal: float
    windows: tuple[ScheduleWindow, ...]

    def _mean(self, value) -> float:
        total = weight = 0.0
        for w in self.windows:
            dt = w.end_s - w.start_s
            total += value(w) * dt
            weight += dt
        return total / weight if weight > 0 else 0.0

    @property
    def mean_wh_per_request(self) -> float:
        """Duration-weighted Wh/request under the schedule."""
        return self._mean(lambda w: w.cap.wh_per_request)

    @property
    def baseline_wh_per_request(self) -> float:
        """Duration-weighted Wh/request uncapped."""
        return self._mean(lambda w: w.baseline.wh_per_request)

    @property
    def mean_gco2_per_request(self) -> float:
        """Duration-weighted gCO₂/request under the schedule."""
        return self._mean(lambda w: w.gco2_per_request(self.site.pue))

    @property
    def baseline_gco2_per_request(self) -> float:
        """Duration-weighted gCO₂/request uncapped."""
        return self._mean(
            lambda w: w.baseline_gco2_per_request(self.site.pue)
        )

    def describe(self) -> str:
        """Multi-line schedule summary vs. the no-cap baseline."""
        lines = [
            f"energy-aware cap schedule (site {self.site.name}, budget "
            f"{self.budget_gco2_per_request:.4f} gCO2/request, SLO goal "
            f"{self.attainment_goal:.0%}):"
        ]
        for w in self.windows:
            cap = (
                "uncapped"
                if w.cap.power_cap_w <= 0
                else f"{w.cap.power_cap_w:g} W"
            )
            lines.append(
                f"  t={w.start_s / 3600:05.2f}h grid "
                f"{w.gco2_per_kwh:6.1f} gCO2/kWh -> {cap:>9}  "
                f"{w.cap.wh_per_request:.4f} Wh/req  "
                f"{w.gco2_per_request(self.site.pue):.4f} gCO2/req "
                f"(uncapped {w.baseline_gco2_per_request(self.site.pue):.4f})"
            )
        wh, wh0 = self.mean_wh_per_request, self.baseline_wh_per_request
        g, g0 = self.mean_gco2_per_request, self.baseline_gco2_per_request
        lines.append(
            f"  mean: {wh:.4f} Wh/req vs {wh0:.4f} uncapped "
            f"({1 - wh / wh0:.1%} saved); {g:.4f} gCO2/req vs {g0:.4f} "
            f"({1 - g / g0:.1%} saved)"
        )
        return "\n".join(lines)


def pick_cap_for_window(
    points: list[ServeCapPoint],
    gco2_per_kwh: float,
    pue: float,
    *,
    budget_gco2_per_request: float,
    attainment_goal: float,
) -> ServeCapPoint:
    """The fastest SLO-compliant cap fitting the window's carbon budget.

    Green windows admit the uncapped point (run fast while the grid is
    clean); dirty windows force lower caps.  When nothing fits the
    budget, the cleanest SLO-compliant point is the best effort; when
    nothing attains the SLO at all, the highest-attainment point wins
    (degrading latency is a policy decision, not the scheduler's).
    """
    if not points:
        raise ConfigError("no serve cap points to schedule from")
    eligible = [p for p in points if p.slo_attainment >= attainment_goal]
    if not eligible:
        return max(points, key=lambda p: (p.slo_attainment, -p.wh_per_request))
    fitting = [
        p
        for p in eligible
        if p.wh_per_request * pue * gco2_per_kwh / 1000.0
        <= budget_gco2_per_request
    ]
    if fitting:
        return max(fitting, key=lambda p: (p.goodput_tok_s, p.power_cap_w))
    return min(eligible, key=lambda p: (p.wh_per_request, p.power_cap_w))


def energy_aware_schedule(
    points: list[ServeCapPoint],
    timeseries: IntensityTimeseries,
    site: SiteProfile | str = "jsc",
    *,
    attainment_goal: float = 0.9,
    budget_gco2_per_request: float | None = None,
    horizon_s: float = 86400.0,
) -> EnergyAwareReport:
    """Per-window cap schedule over the grid timeseries.

    The default budget is 85 % of the uncapped point's emissions at the
    horizon's *mean* intensity: windows cleaner than that admit stock
    clocks, dirtier ones push the fleet down the frontier.
    """
    if not 0.0 < attainment_goal <= 1.0:
        raise ConfigError(
            f"attainment goal must be in (0, 1], got {attainment_goal:g}"
        )
    if budget_gco2_per_request is not None and budget_gco2_per_request < 0:
        raise ConfigError(
            f"budget must be non-negative, got {budget_gco2_per_request:g} gCO2/request"
        )
    if horizon_s <= 0:
        raise ConfigError(f"horizon must be positive, got {horizon_s:g} s")
    if isinstance(site, str):
        site = get_site(site)
    if not points:
        raise ConfigError("no serve cap points to schedule from")
    baseline = max(points, key=_effective_cap)
    if budget_gco2_per_request is None:
        mean = timeseries.mean_gco2(0.0, horizon_s)
        budget_gco2_per_request = (
            0.85 * baseline.wh_per_request * site.pue * mean / 1000.0
        )
    edges = sorted(
        {0.0, horizon_s, *(
            p.start_s for p in timeseries.points if 0.0 < p.start_s < horizon_s
        )}
    )
    windows = []
    for start, end in zip(edges[:-1], edges[1:]):
        intensity = timeseries.at(start).gco2_per_kwh
        cap = pick_cap_for_window(
            points,
            intensity,
            site.pue,
            budget_gco2_per_request=budget_gco2_per_request,
            attainment_goal=attainment_goal,
        )
        windows.append(
            ScheduleWindow(
                start_s=start,
                end_s=end,
                gco2_per_kwh=intensity,
                cap=cap,
                baseline=baseline,
            )
        )
    return EnergyAwareReport(
        site=site,
        budget_gco2_per_request=budget_gco2_per_request,
        attainment_goal=attainment_goal,
        windows=tuple(windows),
    )

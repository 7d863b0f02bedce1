"""Energy-aware campaign scheduling: defer cache misses into green windows.

A campaign re-run has two kinds of workpackages: cache hits, which cost
nothing (the store answers them), and cache misses, which burn real
device energy when they execute.  Hits are time-indifferent — but the
misses can wait.  Given a grid carbon-intensity timeseries
(:class:`~repro.analysis.carbon.IntensityTimeseries`), this module
plans *when* to execute the missing workpackages: it finds the
greenest window of sufficient length inside the deferral horizon and
reports the emissions of running there versus running immediately.

This is a planner, not an executor — it compares the campaign plan
against the store exactly like ``campaign status`` does (no execution,
no side effects) and returns a :class:`DeferralPlan` whose
``run_at_s`` the caller can act on (sleep until, submit with a start
time, or ignore).  The decision degrades gracefully: with a flat grid
the greenest window is "now" and deferral is free of cost either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.carbon import IntensityTimeseries, SiteProfile, get_site
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.errors import ConfigError


@dataclass(frozen=True)
class DeferralPlan:
    """When to run a campaign's cache misses, and what it saves.

    Energy figures are *estimates* (workload duration × mean device
    power × device count, scaled by PUE); the point of the plan is the
    relative comparison between windows, which the estimate's absolute
    error cancels out of.
    """

    campaign: str
    site: SiteProfile
    cached: int
    misses: int
    run_at_s: float
    duration_s: float
    window_gco2_per_kwh: float
    immediate_gco2_per_kwh: float
    site_energy_wh: float

    @property
    def deferred(self) -> bool:
        """Whether waiting beats running immediately."""
        return self.run_at_s > 0.0 and self.misses > 0

    @property
    def emissions_g(self) -> float:
        """Estimated gCO₂ when running in the chosen window."""
        return self.site_energy_wh / 1000.0 * self.window_gco2_per_kwh

    @property
    def immediate_emissions_g(self) -> float:
        """Estimated gCO₂ when running right now."""
        return self.site_energy_wh / 1000.0 * self.immediate_gco2_per_kwh

    @property
    def savings_fraction(self) -> float:
        """Relative emissions saved by deferring (0 with nothing to run)."""
        if self.immediate_emissions_g <= 0:
            return 0.0
        return 1.0 - self.emissions_g / self.immediate_emissions_g

    def describe(self) -> str:
        """Multi-line human-readable plan."""
        lines = [
            f"campaign {self.campaign!r}: {self.cached} workpackage(s) "
            f"answered by the store, {self.misses} to execute"
        ]
        if self.misses == 0:
            lines.append("  nothing to schedule — the store is complete")
            return "\n".join(lines)
        when = (
            f"defer to t+{self.run_at_s / 3600:.1f}h"
            if self.deferred
            else "run now"
        )
        lines.append(
            f"  {when}: ~{self.duration_s / 60:.0f} min of execution, "
            f"~{self.site_energy_wh:.1f} Wh site energy at "
            f"{self.window_gco2_per_kwh:.0f} gCO2/kWh "
            f"-> ~{self.emissions_g:.1f} gCO2"
        )
        lines.append(
            f"  immediate: {self.immediate_gco2_per_kwh:.0f} gCO2/kWh "
            f"-> ~{self.immediate_emissions_g:.1f} gCO2 "
            f"(deferral saves {self.savings_fraction:.1%})"
        )
        return "\n".join(lines)


def plan_deferral(
    spec: CampaignSpec,
    store: ResultStore,
    timeseries: IntensityTimeseries,
    *,
    site: SiteProfile | str = "jsc",
    est_item_duration_s: float = 60.0,
    est_item_power_w: float = 300.0,
    parallel_items: int = 1,
    horizon_s: float = 86400.0,
) -> DeferralPlan:
    """Plan when to execute a campaign's cache misses.

    ``est_item_duration_s`` / ``est_item_power_w`` estimate one
    workpackage's wall time and mean device draw (defaults are a short
    benchmark run on a capped-class GPU); ``parallel_items`` divides
    the makespan for pool executors.  The greenest start inside
    ``horizon_s`` wins; a tie (flat grid) resolves to "now".
    """
    if est_item_duration_s <= 0 or est_item_power_w <= 0:
        raise ConfigError("duration and power estimates must be positive")
    if parallel_items < 1:
        raise ConfigError("parallel_items must be >= 1")
    if horizon_s <= 0:
        raise ConfigError(f"horizon must be positive, got {horizon_s:g} s")
    if isinstance(site, str):
        site = get_site(site)
    status = CampaignRunner(store).status(spec)
    cached = sum(s.completed for s in status.steps)
    misses = sum(s.missing + s.failed for s in status.steps)
    if misses == 0:
        return DeferralPlan(
            campaign=spec.name,
            site=site,
            cached=cached,
            misses=0,
            run_at_s=0.0,
            duration_s=0.0,
            window_gco2_per_kwh=timeseries.at(0.0).gco2_per_kwh,
            immediate_gco2_per_kwh=timeseries.at(0.0).gco2_per_kwh,
            site_energy_wh=0.0,
        )
    waves = -(-misses // parallel_items)  # ceil
    duration_s = waves * est_item_duration_s
    device_energy_wh = misses * est_item_duration_s * est_item_power_w / 3600.0
    site_energy_wh = device_energy_wh * site.pue
    start, window_mean = timeseries.lowest_window(
        duration_s, horizon_s=horizon_s
    )
    immediate_mean = timeseries.mean_gco2(0.0, duration_s)
    # Deferral must actually pay: an equally-green later window is noise.
    if window_mean >= immediate_mean:
        start, window_mean = 0.0, immediate_mean
    return DeferralPlan(
        campaign=spec.name,
        site=site,
        cached=cached,
        misses=misses,
        run_at_s=start,
        duration_s=duration_s,
        window_gco2_per_kwh=window_mean,
        immediate_gco2_per_kwh=immediate_mean,
        site_energy_wh=site_energy_wh,
    )

"""Energy-to-carbon accounting (paper §II-D related work [27], [28]).

The paper motivates energy measurement with the environmental impact
of AI training; this module closes the loop from the measured Wh to
site-level energy and CO2-equivalent estimates, in the style of
Patterson et al. [27] and the BLOOM footprint study [28]:

    site energy = device energy * PUE
    emissions   = site energy * grid carbon intensity
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class SiteProfile:
    """Datacentre energy profile.

    ``pue`` is the power usage effectiveness (total facility power over
    IT power); ``grid_gco2_per_kwh`` the grid carbon intensity in
    grams CO2e per kWh.
    """

    name: str
    pue: float
    grid_gco2_per_kwh: float

    def __post_init__(self) -> None:
        if self.pue < 1.0:
            raise ConfigError("PUE cannot be below 1.0")
        if self.grid_gco2_per_kwh < 0:
            raise ConfigError("carbon intensity must be >= 0")


#: Representative sites.  JSC: hot-water-cooled JUWELS-class facility
#: on the 2023 German grid mix; the others bracket the range [27] uses.
SITES: dict[str, SiteProfile] = {
    s.name: s
    for s in [
        SiteProfile("jsc", pue=1.1, grid_gco2_per_kwh=380.0),
        SiteProfile("hydro", pue=1.1, grid_gco2_per_kwh=20.0),
        SiteProfile("us-average", pue=1.4, grid_gco2_per_kwh=390.0),
        SiteProfile("coal-heavy", pue=1.6, grid_gco2_per_kwh=820.0),
    ]
}


def get_site(name: str) -> SiteProfile:
    """Look up a site profile."""
    try:
        return SITES[name]
    except KeyError:
        raise ConfigError(
            f"unknown site {name!r}; known: {', '.join(sorted(SITES))}"
        ) from None


@dataclass(frozen=True)
class CarbonEstimate:
    """Energy and emissions of one (possibly multi-device) run."""

    device_energy_wh: float
    site_energy_wh: float
    emissions_gco2: float

    def describe(self) -> str:
        """One-line report."""
        return (
            f"{self.device_energy_wh:.1f} Wh device, "
            f"{self.site_energy_wh:.1f} Wh site, "
            f"{self.emissions_gco2:.1f} gCO2e"
        )


def estimate(
    device_energy_wh: float,
    site: SiteProfile,
    *,
    devices: int = 1,
) -> CarbonEstimate:
    """Carbon estimate for a per-device energy over N devices."""
    if device_energy_wh < 0:
        raise ConfigError("energy must be >= 0")
    if devices < 1:
        raise ConfigError("devices must be >= 1")
    total_device = device_energy_wh * devices
    site_energy = total_device * site.pue
    emissions = site_energy / 1000.0 * site.grid_gco2_per_kwh
    return CarbonEstimate(
        device_energy_wh=total_device,
        site_energy_wh=site_energy,
        emissions_gco2=emissions,
    )


def full_training_estimate(
    tokens_target: float,
    tokens_per_second: float,
    mean_power_w: float,
    site: SiteProfile,
    *,
    devices: int = 1,
) -> CarbonEstimate:
    """Extrapolate a benchmark point to a full training run.

    E.g. training the 800M model on 300B tokens at the measured
    per-node throughput and power.
    """
    if tokens_target <= 0 or tokens_per_second <= 0 or mean_power_w <= 0:
        raise ConfigError("targets, rates and power must be positive")
    seconds = tokens_target / tokens_per_second
    per_device_wh = mean_power_w * seconds / 3600.0
    return estimate(per_device_wh, site, devices=devices)


# -- time-varying grids ------------------------------------------------------


@dataclass(frozen=True)
class IntensityPoint:
    """One step of a piecewise-constant grid timeseries."""

    start_s: float
    gco2_per_kwh: float


@dataclass(frozen=True)
class IntensityTimeseries:
    """Piecewise-constant carbon intensity over time.

    What electricityMap-style grid APIs return: a sequence of
    ``(start, gCO2/kWh)`` steps, each valid until the next
    step's start.  The last step extends to infinity, so lookups never
    fall off the end; lookups before the first step clamp to it.
    The energy-aware scheduler consumes this to pick caps and defer
    work into low-intensity windows.
    """

    points: tuple[IntensityPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigError("intensity timeseries needs at least one point")
        starts = [p.start_s for p in self.points]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ConfigError("intensity points must have increasing starts")
        for p in self.points:
            if p.gco2_per_kwh < 0:
                raise ConfigError("intensity must be >= 0")

    def at(self, time_s: float) -> IntensityPoint:
        """The step in effect at ``time_s``."""
        current = self.points[0]
        for p in self.points:
            if p.start_s > time_s:
                break
            current = p
        return current

    def mean_gco2(self, start_s: float, end_s: float) -> float:
        """Time-weighted mean intensity over ``[start_s, end_s)``."""
        if end_s <= start_s:
            raise ConfigError("window must have positive duration")
        boundaries = [
            p.start_s for p in self.points if start_s < p.start_s < end_s
        ]
        total, t = 0.0, start_s
        for b in boundaries:
            total += (b - t) * self.at(t).gco2_per_kwh
            t = b
        total += (end_s - t) * self.at(t).gco2_per_kwh
        return total / (end_s - start_s)

    def lowest_window(
        self, duration_s: float, *, horizon_s: float | None = None
    ) -> tuple[float, float]:
        """``(start, mean gCO2/kWh)`` of the greenest window.

        Candidate starts are the step boundaries (plus 0): with a
        piecewise-constant series the optimal window always begins at
        one.  ``horizon_s`` bounds how far ahead the scheduler may
        defer (default: the last step's start).
        """
        if duration_s <= 0:
            raise ConfigError("window duration must be positive")
        last = self.points[-1].start_s
        limit = horizon_s if horizon_s is not None else last
        candidates = sorted({0.0, *(p.start_s for p in self.points if p.start_s <= limit)})
        best = None
        for start in candidates:
            mean = self.mean_gco2(start, start + duration_s)
            if best is None or mean < best[1]:
                best = (start, mean)
        return best

    @classmethod
    def diurnal(
        cls,
        *,
        mean_gco2_per_kwh: float = 380.0,
        swing: float = 0.45,
        trough_at_s: float = 50400.0,
    ) -> "IntensityTimeseries":
        """A deterministic day-shaped grid curve.

        A sinusoid sampled into 24 hourly constant segments: intensity
        bottoms out at ``trough_at_s``
        (14:00 by default — the solar peak) and peaks half a period
        away.  Purely analytic, so scheduler demos and tests are
        reproducible without a grid API.
        """
        import math as _math

        period_s, steps = 86400.0, 24
        if not 0.0 <= swing < 1.0:
            raise ConfigError("swing must be in [0, 1)")
        points = []
        for i in range(steps):
            start = period_s * i / steps
            mid = start + period_s / (2 * steps)
            phase = 2.0 * _math.pi * (mid - trough_at_s) / period_s
            factor = 1.0 - swing * _math.cos(phase)
            points.append(
                IntensityPoint(start_s=start, gco2_per_kwh=mean_gco2_per_kwh * factor)
            )
        return cls(points=tuple(points))

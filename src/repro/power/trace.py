"""Utilisation timelines and sampled power traces.

Engines emit a :class:`UtilisationTimeline` (piecewise-constant device
utilisation over *virtual* time).  A timeline plus a
:class:`~repro.power.model.PowerModel` yields exact energy; jpwr's
sampling loop instead produces a :class:`PowerTrace` (discrete samples)
and integrates it trapezoidally, exactly as the real tool integrates
counter reads.  Tests assert the two agree to within the sampling
error bound.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.power.model import PowerModel


class UtilisationTimeline:
    """Piecewise-constant utilisation of one device over virtual time.

    Segments are appended in order; each covers ``duration_s`` at a
    constant utilisation in [0, 1].
    """

    def __init__(self, start_time_s: float = 0.0) -> None:
        self.start_time_s = float(start_time_s)
        self._durations: list[float] = []
        self._utils: list[float] = []
        self._ends: list[float] = []  # cumulative end times (absolute)

    def __len__(self) -> int:
        return len(self._durations)

    @property
    def end_time_s(self) -> float:
        """Absolute end time of the last segment."""
        return self._ends[-1] if self._ends else self.start_time_s

    @property
    def total_duration_s(self) -> float:
        """Sum of all segment durations."""
        return self.end_time_s - self.start_time_s

    def append(self, duration_s: float, utilisation: float) -> None:
        """Append one constant-utilisation segment."""
        if duration_s < 0:
            raise ValueError("segment duration must be >= 0")
        if not 0.0 <= utilisation <= 1.0:
            raise ValueError(f"utilisation must be in [0,1], got {utilisation}")
        if duration_s == 0:
            return
        self._durations.append(float(duration_s))
        self._utils.append(float(utilisation))
        self._ends.append(self.end_time_s + float(duration_s))

    def utilisation_at(self, t: float) -> float:
        """Utilisation at absolute time ``t`` (0 outside the timeline)."""
        if t < self.start_time_s or not self._ends or t >= self._ends[-1]:
            return 0.0
        idx = bisect.bisect_right(self._ends, t)
        return self._utils[idx]

    def segments(self) -> list[tuple[float, float, float]]:
        """List of (start_s, duration_s, utilisation) tuples."""
        out = []
        start = self.start_time_s
        for dur, util in zip(self._durations, self._utils):
            out.append((start, dur, util))
            start += dur
        return out

    def to_csv(self) -> str:
        """Serialise as ``duration_s,utilisation`` CSV rows."""
        lines = ["duration_s,utilisation"]
        for _, duration, util in self.segments():
            lines.append(f"{duration},{util}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "UtilisationTimeline":
        """Parse a ``duration_s,utilisation`` CSV (with header row).

        This is the jpwr CLI's ``--replay`` format: a recorded workload
        profile that can be replayed onto any system's devices.
        """
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty timeline CSV")
        start = 1 if lines[0].lower().startswith("duration") else 0
        timeline = cls()
        for line in lines[start:]:
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad timeline row {line!r}")
            timeline.append(float(parts[0]), float(parts[1]))
        if len(timeline) == 0:
            raise ValueError("timeline CSV has no segments")
        return timeline

    def exact_energy_j(self, model: PowerModel) -> float:
        """Exact energy of the timeline under a power model (joules)."""
        return sum(model.energy(u, d) for d, u in zip(self._durations, self._utils))

    def mean_power_w(self, model: PowerModel) -> float:
        """Time-averaged power under a model (idle power if empty)."""
        total = self.total_duration_s
        if total == 0:
            return model.power(0.0)
        return self.exact_energy_j(model) / total


@dataclass
class PowerTrace:
    """Discrete (time, power) samples of one measured quantity.

    This is the in-memory shape of what jpwr's sampling thread collects:
    timestamps (seconds) and instantaneous power reads (watts).
    """

    times_s: list[float] = field(default_factory=list)
    watts: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times_s)

    def add(self, time_s: float, power_w: float) -> None:
        """Append one sample; timestamps must be non-decreasing."""
        if self.times_s and time_s < self.times_s[-1]:
            raise ValueError("sample timestamps must be non-decreasing")
        if power_w < 0:
            raise ValueError("power must be >= 0")
        self.times_s.append(float(time_s))
        self.watts.append(float(power_w))

    def energy_j(self) -> float:
        """Trapezoidal integral of the trace in joules.

        This mirrors how jpwr derives energy from sampled power: each
        inter-sample interval contributes the mean of its endpoint
        powers times its length.  Fewer than two samples integrate to 0.
        """
        if len(self.times_s) < 2:
            return 0.0
        t = np.asarray(self.times_s)
        p = np.asarray(self.watts)
        return float(np.trapezoid(p, t))

    def mean_power_w(self) -> float:
        """Energy divided by span (0 if fewer than two samples)."""
        if len(self.times_s) < 2:
            return 0.0
        span = self.times_s[-1] - self.times_s[0]
        if span == 0:
            return float(self.watts[0])
        return self.energy_j() / span

    @classmethod
    def from_timeline(
        cls,
        timeline: UtilisationTimeline,
        model: PowerModel,
        interval_s: float,
    ) -> "PowerTrace":
        """Sample a timeline the way jpwr's loop would.

        Samples are taken at ``interval_s`` spacing from the timeline's
        start through its end (inclusive of an end sample so the last
        partial interval is not dropped).
        """
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        trace = cls()
        t = timeline.start_time_s
        end = timeline.end_time_s
        while t < end:
            trace.add(t, model.power(timeline.utilisation_at(t)))
            t += interval_s
        # Final sample exactly at the end (utilisation just inside).
        trace.add(end, model.power(timeline.utilisation_at(max(end - 1e-12, 0.0))))
        return trace

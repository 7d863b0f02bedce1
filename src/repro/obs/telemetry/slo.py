"""Multi-window burn-rate monitoring over SLO attainment.

Implements the SRE-style alerting rule: with an attainment objective
``obj`` (say 99% of requests meet the SLO), the **error budget** is
``1 - obj`` and the **burn rate** of a window is the window's violation
fraction divided by the budget (burn rate 1 ⇒ the budget exactly lasts
the period; burn rate 10 ⇒ it is gone in a tenth of it).  A rule pairs
a long window (smooths noise) with a short window (fast reset) and
fires only when *both* exceed its threshold — the standard way to get
fast detection without alerts that linger long after the incident.

Windows here are simulated-time spans sized for simulator runs (tens
of seconds, not SRE hours); the mechanics are identical.  State is a
pair of time-pruned deques per rule with running violation counts, so
each observation costs amortised O(1) and memory stays bounded by the
longest window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Default attainment objective: 95% of requests meet the SLO.
DEFAULT_OBJECTIVE = 0.95

#: Minimum events in a rule's long window before it may fire — prevents
#: a single early violation from tripping a 100% burn rate.
DEFAULT_MIN_EVENTS = 10


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alerting rule.

    Fires when the burn rate of *both* windows is at or above
    ``threshold``; clears when the short window drops back below it.
    """

    name: str
    short_window_s: float
    long_window_s: float
    threshold: float

    def __post_init__(self) -> None:
        """Validate window ordering and threshold positivity."""
        if self.short_window_s <= 0 or self.long_window_s <= 0:
            raise ConfigError("burn-rate windows must be positive")
        if self.short_window_s > self.long_window_s:
            raise ConfigError(
                f"rule {self.name!r}: short window exceeds long window"
            )
        if self.threshold <= 0:
            raise ConfigError("burn-rate threshold must be positive")

    def to_dict(self) -> dict:
        """Serializable rule parameters."""
        return {
            "name": self.name,
            "short_window_s": self.short_window_s,
            "long_window_s": self.long_window_s,
            "threshold": self.threshold,
        }


#: Default rule set, scaled to simulated-minutes runs: a fast-burn rule
#: (half the budget rate over 5 s / 60 s windows at objective 95%) and
#: a slow-burn rule catching sustained lower-grade violation.
DEFAULT_BURN_RATE_RULES = (
    BurnRateRule("fast_burn", short_window_s=5.0, long_window_s=60.0, threshold=10.0),
    BurnRateRule("slow_burn", short_window_s=30.0, long_window_s=300.0, threshold=2.0),
)


@dataclass
class SLOAlert:
    """One fired (and possibly cleared) burn-rate alert."""

    rule: str
    fired_at_s: float
    burn_rate_short: float
    burn_rate_long: float
    cleared_at_s: float | None = None

    @property
    def active(self) -> bool:
        """Whether the alert has not yet cleared."""
        return self.cleared_at_s is None

    def to_dict(self) -> dict:
        """Serializable alert record (rounded for stable exports)."""
        return {
            "rule": self.rule,
            "fired_at_s": round(self.fired_at_s, 6),
            "cleared_at_s": (
                None if self.cleared_at_s is None else round(self.cleared_at_s, 6)
            ),
            "burn_rate_short": round(self.burn_rate_short, 4),
            "burn_rate_long": round(self.burn_rate_long, 4),
        }


class _Window:
    """Time-pruned event window with a running violation count."""

    __slots__ = ("span_s", "events", "bad")

    def __init__(self, span_s: float) -> None:
        self.span_s = span_s
        self.events: deque[tuple[float, bool]] = deque()
        self.bad = 0

    def observe(self, t_s: float, ok: bool) -> None:
        """Add one event and drop those older than the span."""
        self.events.append((t_s, ok))
        if not ok:
            self.bad += 1
        cutoff = t_s - self.span_s
        while self.events and self.events[0][0] < cutoff:
            _, was_ok = self.events.popleft()
            if not was_ok:
                self.bad -= 1

    def violation_fraction(self) -> float:
        """Fraction of in-window events violating the SLO."""
        return self.bad / len(self.events) if self.events else 0.0

    def __len__(self) -> int:
        return len(self.events)


class SLOMonitor:
    """Tracks SLO attainment and fires multi-window burn-rate alerts.

    Feed one ``observe(t_s, ok)`` per completed request;
    the return value lists ``("fired" | "cleared", SLOAlert)``
    transitions so the caller can mirror them onto the trace.
    """

    def __init__(
        self,
        *,
        objective: float = DEFAULT_OBJECTIVE,
        rules: tuple[BurnRateRule, ...] = DEFAULT_BURN_RATE_RULES,
        min_events: int = DEFAULT_MIN_EVENTS,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ConfigError("SLO objective must be in (0, 1)")
        if not rules:
            raise ConfigError("SLO monitor needs at least one rule")
        self.objective = float(objective)
        self.budget = 1.0 - self.objective
        self.rules = tuple(rules)
        self.min_events = int(min_events)
        self.total = 0
        self.violations = 0
        self.alerts: list[SLOAlert] = []
        self._windows = {
            rule.name: (_Window(rule.short_window_s), _Window(rule.long_window_s))
            for rule in self.rules
        }
        self._active: dict[str, SLOAlert] = {}

    def observe(self, t_s: float, ok: bool) -> list[tuple[str, SLOAlert]]:
        """Record one attainment outcome; return alert transitions."""
        self.total += 1
        if not ok:
            self.violations += 1
        transitions: list[tuple[str, SLOAlert]] = []
        for rule in self.rules:
            short, long_ = self._windows[rule.name]
            short.observe(t_s, ok)
            long_.observe(t_s, ok)
            rate_short = short.violation_fraction() / self.budget
            rate_long = long_.violation_fraction() / self.budget
            active = self._active.get(rule.name)
            if active is None:
                if (
                    rate_short >= rule.threshold
                    and rate_long >= rule.threshold
                    and len(long_) >= self.min_events
                ):
                    alert = SLOAlert(
                        rule=rule.name,
                        fired_at_s=t_s,
                        burn_rate_short=rate_short,
                        burn_rate_long=rate_long,
                    )
                    self._active[rule.name] = alert
                    self.alerts.append(alert)
                    transitions.append(("fired", alert))
            elif rate_short < rule.threshold:
                active.cleared_at_s = t_s
                del self._active[rule.name]
                transitions.append(("cleared", active))
        return transitions

    @property
    def attainment(self) -> float:
        """Overall fraction of observations meeting the SLO (1.0 if none)."""
        if self.total == 0:
            return 1.0
        return (self.total - self.violations) / self.total

    def to_dict(self) -> dict:
        """Serializable monitor summary (the result ``alerts`` section)."""
        return {
            "objective": self.objective,
            "total": self.total,
            "violations": self.violations,
            "attainment": round(self.attainment, 6),
            "rules": [rule.to_dict() for rule in self.rules],
            "alerts": [alert.to_dict() for alert in self.alerts],
        }

"""Fixed-interval telemetry sampling over simulated time.

The :class:`TelemetrySampler` turns the event-driven serving simulators
into a *sampled* view: the driving loop calls :meth:`TelemetrySampler.tick`
with the current simulated time after every clock advance, and the
sampler takes snapshots at every elapsed multiple of its interval.
Because simulator state is piecewise-constant between events, sampling
at the aligned boundary times ``k * interval`` after the state of the
preceding event is exact — and byte-deterministic, since the boundary
timestamps are computed by integer multiplication rather than float
accumulation.

Three kinds of series feed the rings:

* **probes** — callables registered by the simulator (queue depth,
  batch occupancy, KV utilisation, watts, replicas-on), evaluated at
  every sample boundary;
* **gauges** — last-written values per label set observed through the
  metrics-registry listener hook (fixing the registry's last-write-wins
  semantics losing per-replica history);
* **rolling windows** — time-windowed percentiles (e.g. TTFT p95 over
  the last 10 s) fed by completion observations.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.obs.telemetry.sketch import RollingWindow
from repro.obs.telemetry.timeseries import RingTimeseries

#: Default sampling interval in simulated seconds (100 ms, matching the
#: serving simulator's trace counter cadence).
DEFAULT_SAMPLE_INTERVAL_S = 0.1

#: Default span of rolling-window percentile series, simulated seconds.
DEFAULT_ROLLING_WINDOW_S = 10.0


class TelemetrySampler:
    """Snapshots registered probes into ring timeseries at a fixed cadence.

    Parameters
    ----------
    interval_s:
        Simulated-time sampling interval.
    rolling_window_s:
        Window span of :meth:`add_rolling` series.
    """

    def __init__(
        self,
        *,
        interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
        rolling_window_s: float = DEFAULT_ROLLING_WINDOW_S,
    ) -> None:
        if interval_s <= 0:
            raise ConfigError("sampling interval must be positive")
        self.interval_s = float(interval_s)
        self.rolling_window_s = float(rolling_window_s)
        self.samples_taken = 0
        self._tick_index = 0
        self._series: dict[tuple, RingTimeseries] = {}
        self._probes: list[tuple[RingTimeseries, Callable[[float], float]]] = []
        self._rollings: list[tuple[RingTimeseries, RollingWindow, float]] = []
        self._gauge_values: dict[tuple[str, tuple], tuple[dict[str, str], float]] = {}
        self._registry = None
        self._on_sample: Callable[[float, "TelemetrySampler"], None] | None = None

    # -- series registration -------------------------------------------------

    def _ring(self, name: str, labels: dict[str, str] | None) -> RingTimeseries:
        """Get or create the ring for one (name, labels) series."""
        ring = RingTimeseries(name=name, labels=dict(labels or {}))
        existing = self._series.get(ring.key())
        if existing is not None:
            return existing
        self._series[ring.key()] = ring
        return ring

    def add_probe(
        self,
        name: str,
        fn: Callable[[float], float],
        *,
        labels: dict[str, str] | None = None,
    ) -> RingTimeseries:
        """Register a state probe evaluated at every sample boundary.

        ``fn`` is called with the boundary's simulated time and returns
        the sampled value (probes over piecewise-constant state may
        ignore the argument).
        """
        ring = self._ring(name, labels)
        self._probes.append((ring, fn))
        return ring

    def add_rolling(
        self,
        name: str,
        *,
        q: float = 95.0,
    ) -> RollingWindow:
        """Register a rolling-percentile series; feed the returned window.

        The caller observes ``(t_s, value)`` pairs on the returned
        :class:`~repro.obs.telemetry.sketch.RollingWindow`, which spans
        ``rolling_window_s``; each sample boundary records the window's
        ``q``-th percentile.
        """
        window = RollingWindow(self.rolling_window_s)
        ring = self._ring(name, None)
        self._rollings.append((ring, window, float(q)))
        return window

    # -- gauge listener ------------------------------------------------------

    def attach_registry(self, registry) -> None:
        """Subscribe to a metrics registry's gauge-update hook.

        Gauge writes update a cheap last-value map here; the values are
        folded into rings at the next sample boundary, preserving the
        per-label history that the registry's last-write-wins gauges
        drop.
        """
        if self._registry is not None:
            raise ConfigError("sampler is already attached to a registry")
        registry.add_gauge_listener(self._on_gauge)
        self._registry = registry

    @property
    def attached(self) -> bool:
        """Whether the sampler is subscribed to a metrics registry."""
        return self._registry is not None

    def detach_registry(self) -> None:
        """Unsubscribe from the attached registry, if any."""
        if self._registry is not None:
            self._registry.remove_gauge_listener(self._on_gauge)
            self._registry = None

    def _on_gauge(self, name: str, labels: dict[str, str], value: float) -> None:
        """Gauge-listener callback: remember the latest value per label set."""
        self._gauge_values[(name, tuple(sorted(labels.items())))] = (labels, value)

    # -- sampling ------------------------------------------------------------

    def on_sample(
        self, callback: Callable[[float, "TelemetrySampler"], None] | None
    ) -> None:
        """Install a per-sample callback (live dashboard hook)."""
        self._on_sample = callback

    @property
    def next_sample_s(self) -> float:
        """Simulated time of the next sample boundary."""
        return self._tick_index * self.interval_s

    def align(self, start_s: float) -> None:
        """Skip boundaries before ``start_s`` (runs starting mid-clock)."""
        while self.next_sample_s < start_s - 1e-12:
            self._tick_index += 1

    def tick(self, now_s: float) -> int:
        """Take all samples due at or before ``now_s``; return how many.

        Boundary times are exact multiples of the interval, so repeated
        runs of the same seeded simulation produce identical
        timestamps.
        """
        taken = 0
        while self.next_sample_s <= now_s + 1e-12:
            self.sample_at(self.next_sample_s)
            self._tick_index += 1
            taken += 1
        return taken

    def sample_at(self, t_s: float) -> None:
        """Record one snapshot of every registered series at ``t_s``."""
        for ring, fn in self._probes:
            ring.append(t_s, float(fn(t_s)))
        for ring, window, q in self._rollings:
            ring.append(t_s, window.percentile(q, now_s=t_s))
        for (name, _), (labels, value) in self._gauge_values.items():
            self._ring(name, labels).append(t_s, value)
        self.samples_taken += 1
        if self._on_sample is not None:
            self._on_sample(t_s, self)

    def finish(self, now_s: float) -> None:
        """Flush samples up to the end of the run and detach the registry."""
        self.tick(now_s)
        self.detach_registry()

    # -- accessors -----------------------------------------------------------

    def all_series(self) -> list[RingTimeseries]:
        """Every ring, sorted by (name, labels) for deterministic export."""
        return [self._series[key] for key in sorted(self._series)]

    def series(
        self, name: str, labels: dict[str, str] | None = None
    ) -> RingTimeseries | None:
        """Look up one ring by name and labels (None when absent)."""
        key = (name, tuple(sorted((labels or {}).items())))
        return self._series.get(key)

    def to_dict(self) -> dict:
        """Serializable snapshot of the sampler and all series."""
        return {
            "interval_s": self.interval_s,
            "samples_taken": self.samples_taken,
            "series": [ring.to_dict() for ring in self.all_series()],
        }

"""Streaming quantile estimation: the P² algorithm and rolling windows.

Million-request serving runs cannot afford to hold every latency sample
for an end-of-run sort.  The **P² algorithm** (Jain & Chlamtac, CACM
1985) estimates one quantile from a stream in O(1) memory: five markers
track the running minimum, maximum, the target quantile and its two
midpoints, and each marker's height is adjusted by a piecewise-parabolic
prediction as observations arrive.

Accuracy contract (asserted by the property suite): on
randomly-ordered streams of at least :data:`P2_MIN_SAMPLES_FOR_BOUND`
observations, the P² estimate of percentile ``q`` lies within the
*exact* nearest-rank values at ranks ``q ± P2_RANK_TOLERANCE`` — i.e.
the estimate is at most two percentile ranks off, which for
serving-latency distributions translates to a few percent of the tail
value.  Fully pre-sorted (monotone) input is the algorithm's worst
case: the parabolic marker prediction lags a drifting distribution,
so sorted streams are only guaranteed the looser
:data:`P2_SORTED_RANK_TOLERANCE`.  Small streams fall back to exact
nearest rank over the buffered first observations, so sketch and
exact mode agree exactly below five samples.

Everything here is deterministic: the same observation sequence yields
byte-identical serialized sketch state (:meth:`P2Quantile.to_dict`
round-trips through sorted-key JSON).
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from repro.errors import ConfigError

#: Documented accuracy bound of the P² estimate, in percentile ranks:
#: the estimate lies between the exact values at ``q - tol`` and
#: ``q + tol`` once the stream is long enough.
P2_RANK_TOLERANCE = 2.0

#: Worst-case bound for fully pre-sorted (monotone) input streams,
#: where the marker prediction lags the drifting sample distribution.
P2_SORTED_RANK_TOLERANCE = 6.0

#: Stream length from which the :data:`P2_RANK_TOLERANCE` bound holds.
P2_MIN_SAMPLES_FOR_BOUND = 10_000

#: Marker count of the P² estimator (min, lower mid, target, upper
#: mid, max).
_MARKERS = 5


def nearest_rank(ordered: list[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending-sorted sample.

    ``q`` is a rank on a 0-100 scale and selects the ordinal
    ``ceil(q/100 * n)``, clamped at the first element so q→0⁺ returns
    the minimum.
    """
    rank = int(-(-(q * len(ordered)) // 100))  # ceil(q/100 * n)
    return ordered[max(rank, 1) - 1]


class P2Quantile:
    """O(1)-memory streaming estimator of one percentile.

    Parameters
    ----------
    q:
        Target percentile in (0, 100).

    The first five observations are buffered and answered exactly;
    from the sixth on, the five P² markers are maintained and
    :attr:`value` returns the middle marker's height.
    """

    __slots__ = ("q", "count", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 100.0:
            raise ConfigError(f"P2 percentile must be in (0, 100), got {q}")
        self.q = float(q)
        self.count = 0
        p = self.q / 100.0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._rates = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold a run of observations into the sketch, in order.

        The five heights, positions and desired positions live in
        locals for the whole run.  Each observation makes the IEEE
        operations of the textbook one-at-a-time update in its order,
        so any split of a stream into runs gives byte-identical
        :meth:`state_json`.
        """
        values = iter(values)
        count = self.count
        if count < _MARKERS:
            # Buffer the first five observations; they are answered
            # exactly and become the initial marker heights.
            heights = self._heights
            for x in values:
                heights.append(float(x))
                heights.sort()
                count += 1
                if count == _MARKERS:
                    break
            self.count = count
            if count < _MARKERS:
                return
        h0, h1, h2, h3, h4 = self._heights
        n0, n1, n2, n3, n4 = self._positions
        d0, d1, d2, d3, d4 = self._desired
        r0, r1, r2, r3, r4 = self._rates
        for x in values:
            x = float(x)
            count += 1
            # Locate the marker cell k the observation falls into (the
            # extreme markers absorb new minima and maxima), testing
            # ``x >= h[k+1]`` upward as far as it holds, and move the
            # markers above the cell up one position.
            if x < h0:
                h0 = x
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif x >= h4:
                h4 = x
            elif not x >= h1:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif not x >= h2:
                n2 += 1.0
                n3 += 1.0
            elif not x >= h3:
                n3 += 1.0
            n4 += 1.0
            d0 += r0
            d1 += r1
            d2 += r2
            d3 += r3
            d4 += r4
            # Move the three inner markers toward their desired
            # positions, lowest first: each sees the markers below it
            # already moved.  The parabolic (P²) prediction is taken
            # when it stays between the neighbours, the linear one
            # toward the neighbour in the step's direction otherwise.
            e = d1 - n1
            if (e >= 1.0 and n2 - n1 > 1.0) or (e <= -1.0 and n0 - n1 < -1.0):
                s = 1.0 if e >= 1.0 else -1.0
                c = h1 + s / (n2 - n0) * (
                    (n1 - n0 + s) * (h2 - h1) / (n2 - n1)
                    + (n2 - n1 - s) * (h1 - h0) / (n1 - n0)
                )
                if h0 < c < h2:
                    h1 = c
                elif s > 0.0:
                    h1 = h1 + s * (h2 - h1) / (n2 - n1)
                else:
                    h1 = h1 + s * (h0 - h1) / (n0 - n1)
                n1 += s
            e = d2 - n2
            if (e >= 1.0 and n3 - n2 > 1.0) or (e <= -1.0 and n1 - n2 < -1.0):
                s = 1.0 if e >= 1.0 else -1.0
                c = h2 + s / (n3 - n1) * (
                    (n2 - n1 + s) * (h3 - h2) / (n3 - n2)
                    + (n3 - n2 - s) * (h2 - h1) / (n2 - n1)
                )
                if h1 < c < h3:
                    h2 = c
                elif s > 0.0:
                    h2 = h2 + s * (h3 - h2) / (n3 - n2)
                else:
                    h2 = h2 + s * (h1 - h2) / (n1 - n2)
                n2 += s
            e = d3 - n3
            if (e >= 1.0 and n4 - n3 > 1.0) or (e <= -1.0 and n2 - n3 < -1.0):
                s = 1.0 if e >= 1.0 else -1.0
                c = h3 + s / (n4 - n2) * (
                    (n3 - n2 + s) * (h4 - h3) / (n4 - n3)
                    + (n4 - n3 - s) * (h3 - h2) / (n3 - n2)
                )
                if h2 < c < h4:
                    h3 = c
                elif s > 0.0:
                    h3 = h3 + s * (h4 - h3) / (n4 - n3)
                else:
                    h3 = h3 + s * (h2 - h3) / (n2 - n3)
                n3 += s
        self.count = count
        self._heights = [h0, h1, h2, h3, h4]
        self._positions = [n0, n1, n2, n3, n4]
        self._desired = [d0, d1, d2, d3, d4]

    @property
    def value(self) -> float:
        """The current estimate (exact below five observations)."""
        if self.count == 0:
            raise ConfigError("P2 sketch has no observations")
        if self.count <= _MARKERS:
            return nearest_rank(self._heights, self.q)
        return self._heights[2]

    def to_dict(self) -> dict:
        """Serializable sketch state (byte-deterministic via JSON)."""
        return {
            "q": self.q,
            "count": self.count,
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
        }

    def state_json(self) -> str:
        """Deterministic JSON of :meth:`to_dict` (property-suite probe)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict) -> "P2Quantile":
        """Rebuild a sketch from :meth:`to_dict` output."""
        sketch = cls(float(doc["q"]))
        sketch.count = int(doc["count"])
        sketch._heights = [float(v) for v in doc["heights"]]
        sketch._positions = [float(v) for v in doc["positions"]]
        sketch._desired = [float(v) for v in doc["desired"]]
        return sketch


class StreamingQuantiles:
    """A bundle of P² sketches plus running mean/max over one stream.

    The O(1) replacement for a stored-sample latency summary: one
    :class:`P2Quantile` per requested percentile plus the running sum,
    count and maximum, so a
    :class:`~repro.serve.result.LatencySummary`-shaped result can be
    produced without retaining the observations.
    """

    __slots__ = ("sketches", "count", "_sum", "_max")

    def __init__(self, percentiles: tuple[float, ...]) -> None:
        if not percentiles:
            raise ConfigError("need at least one percentile to track")
        self.sketches = {float(q): P2Quantile(q) for q in percentiles}
        self.count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold a run of observations into the moments and every sketch."""
        values = [float(x) for x in values]
        count, total, top = self.count, self._sum, self._max
        for x in values:
            count += 1
            total += x
            if x > top or count == 1:
                top = x
        self.count, self._sum, self._max = count, total, top
        for sketch in self.sketches.values():
            sketch.observe_many(values)

    def quantile(self, q: float) -> float:
        """Current estimate of one tracked percentile."""
        try:
            return self.sketches[float(q)].value
        except KeyError:
            raise ConfigError(f"percentile {q} is not tracked") from None

    @property
    def mean(self) -> float:
        """Running mean of the stream (0.0 when empty)."""
        return self._sum / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        """Running maximum of the stream (0.0 when empty)."""
        return self._max

    def to_dict(self) -> dict:
        """Serializable state of every sketch plus the running moments."""
        return {
            "count": self.count,
            "sum": self._sum,
            "max": self._max,
            "sketches": {
                f"{q:g}": sketch.to_dict() for q, sketch in self.sketches.items()
            },
        }


class RollingWindow:
    """Time-windowed observations for rolling percentiles.

    Keeps ``(t, value)`` pairs no older than ``window_s`` (bounded
    additionally by ``max_samples`` so adversarial bursts cannot grow
    the window without limit — the oldest samples are dropped first).
    Used by the sampler for rolling-window latency percentiles, where
    the window is short and bounded by construction.
    """

    __slots__ = ("window_s", "max_samples", "_times", "_values")

    def __init__(self, window_s: float, max_samples: int = 4096) -> None:
        if window_s <= 0:
            raise ConfigError("rolling window must be positive")
        if max_samples < 1:
            raise ConfigError("rolling window needs at least one sample slot")
        self.window_s = float(window_s)
        self.max_samples = int(max_samples)
        self._times: list[float] = []
        self._values: list[float] = []

    def observe(self, t_s: float, value: float) -> None:
        """Record one timestamped observation and prune the window."""
        self._times.append(float(t_s))
        self._values.append(float(value))
        self.prune(t_s)

    def prune(self, now_s: float) -> None:
        """Drop samples older than the window (and over the cap)."""
        cutoff = float(now_s) - self.window_s
        drop = 0
        n = len(self._times)
        while drop < n and self._times[drop] < cutoff:
            drop += 1
        if n - drop > self.max_samples:
            drop = n - self.max_samples
        if drop:
            del self._times[:drop]
            del self._values[:drop]

    def __len__(self) -> int:
        return len(self._values)

    def percentile(self, q: float, now_s: float | None = None) -> float:
        """Nearest-rank percentile of the current window (0.0 if empty)."""
        if now_s is not None:
            self.prune(now_s)
        if not self._values:
            return 0.0
        return nearest_rank(sorted(self._values), q)

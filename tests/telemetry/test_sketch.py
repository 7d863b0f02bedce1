"""P² sketch properties: the fold's oracle, accuracy, monotonicity, determinism.

:meth:`~repro.obs.telemetry.sketch.P2Quantile.observe_many` folds a run
of observations with the markers held in locals.
:class:`ReferenceP2Quantile` here is the textbook one-at-a-time update
it replaced; any stream (NaN, ±inf, -0.0 and ties included), split into
chunks any way, must give a ``state_json`` byte-equal to the oracle fed
one value at a time.

The accuracy contract documented in :mod:`repro.obs.telemetry.sketch`:
on streams of at least ``P2_MIN_SAMPLES_FOR_BOUND`` observations the P²
estimate of percentile ``q`` lies between the exact nearest-rank values
at ``q - P2_RANK_TOLERANCE`` and ``q + P2_RANK_TOLERANCE``.  Verified
on seeded random streams, adversarial pre-sorted streams, and via
hypothesis-generated small streams for the exact-mode fallback.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.telemetry.sketch import (
    _MARKERS,
    P2_MIN_SAMPLES_FOR_BOUND,
    P2_RANK_TOLERANCE,
    P2_SORTED_RANK_TOLERANCE,
    P2Quantile,
    RollingWindow,
    StreamingQuantiles,
    nearest_rank,
)

pytestmark = pytest.mark.telemetry


def _exact_band(
    values: list[float], q: float, tolerance: float = P2_RANK_TOLERANCE
) -> tuple[float, float]:
    """Exact nearest-rank values at ``q ± tolerance``."""
    ordered = sorted(values)
    lo_q = max(q - tolerance, 0.01)
    hi_q = min(q + tolerance, 100.0)
    return nearest_rank(ordered, lo_q), nearest_rank(ordered, hi_q)


def _stream(kind: str, n: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    if kind == "uniform":
        return [rng.uniform(0.0, 100.0) for _ in range(n)]
    if kind == "exponential":
        return [rng.expovariate(1.0 / 50.0) for _ in range(n)]
    if kind == "ascending":  # adversarial: fully sorted input
        return sorted(rng.uniform(0.0, 100.0) for _ in range(n))
    if kind == "descending":
        return sorted((rng.uniform(0.0, 100.0) for _ in range(n)), reverse=True)
    if kind == "ties":
        return [float(rng.randint(0, 5)) for _ in range(n)]
    if kind == "lognormal":
        return [rng.lognormvariate(0.0, 2.0) for _ in range(n)]
    raise AssertionError(kind)


class ReferenceP2Quantile(P2Quantile):
    """The one-observation-at-a-time P² update: the oracle of the fold.

    The textbook update that :meth:`P2Quantile.observe_many` unrolls,
    as it was written per observation: find the observation's cell,
    move the markers above it, advance every desired position by its
    rate, then adjust markers 1, 2 and 3 in that order by the parabolic
    or linear prediction.
    """

    __slots__ = ()

    def observe(self, x: float) -> None:
        """Fold one observation into the sketch."""
        x = float(x)
        self.count += 1
        if self.count <= _MARKERS:
            self._heights.append(x)
            self._heights.sort()
            return
        h = self._heights
        # Locate the marker cell the observation falls into; the
        # extreme markers absorb new minima/maxima directly.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, _MARKERS):
            self._positions[i] += 1.0
        for i in range(_MARKERS):
            self._desired[i] += self._rates[i]
        self._adjust_markers()

    def _adjust_markers(self) -> None:
        """Move the three inner markers toward their desired positions."""
        n = self._positions
        h = self._heights
        for i in (1, 2, 3):
            d = self._desired[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        """Piecewise-parabolic (P²) height prediction for marker ``i``."""
        n = self._positions
        h = self._heights
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        """Linear fallback when the parabola leaves the marker order."""
        n = self._positions
        h = self._heights
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])


class ReferenceStreamingQuantiles(StreamingQuantiles):
    """Moments and :class:`ReferenceP2Quantile` sketches, one value at a time."""

    def __init__(self, percentiles: tuple[float, ...]) -> None:
        super().__init__(percentiles)
        self.sketches = {q: ReferenceP2Quantile(q) for q in self.sketches}

    def observe(self, x: float) -> None:
        """Fold one observation into every sketch."""
        x = float(x)
        self.count += 1
        self._sum += x
        if x > self._max or self.count == 1:
            self._max = x
        for sketch in self.sketches.values():
            sketch.observe(x)


def _chunks(values: list[float], cuts: list[int]) -> list[list[float]]:
    """``values`` split at the sorted ``cuts`` (empty chunks allowed)."""
    bounds = [0, *sorted(cuts), len(values)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


#: Any float, including NaN, ±inf and -0.0, with the special values and
#: a few plain ones drawn often enough to make ties.
_ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan, math.inf, -math.inf]),
)


class TestObserveManyMatchesOracle:
    @given(
        values=st.lists(_ANY_FLOAT, max_size=120),
        q=st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_stream_and_split(self, values, q, data):
        cuts = data.draw(st.lists(st.integers(0, len(values)), max_size=6))
        oracle = ReferenceP2Quantile(q)
        for v in values:
            oracle.observe(v)
        sketch = P2Quantile(q)
        for chunk in _chunks(values, cuts):
            sketch.observe_many(chunk)
        assert sketch.state_json() == oracle.state_json()

    @given(values=st.lists(_ANY_FLOAT, max_size=120), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_streaming_quantiles_state(self, values, data):
        cuts = data.draw(st.lists(st.integers(0, len(values)), max_size=6))
        percentiles = (1.0, 37.5, 50.0, 95.0, 99.0)
        oracle = ReferenceStreamingQuantiles(percentiles)
        for v in values:
            oracle.observe(v)
        stream = StreamingQuantiles(percentiles)
        for chunk in _chunks(values, cuts):
            stream.observe_many(chunk)
        assert json.dumps(stream.to_dict(), sort_keys=True) == json.dumps(
            oracle.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize(
        "kind",
        ["uniform", "exponential", "ascending", "descending", "ties", "lognormal"],
    )
    def test_long_streams_whole_and_chunked(self, kind):
        values = _stream(kind, 3000, seed=5)
        for q in (1.0, 37.5, 50.0, 95.0, 99.0):
            oracle = ReferenceP2Quantile(q)
            for v in values:
                oracle.observe(v)
            whole = P2Quantile(q)
            whole.observe_many(values)
            chunked = P2Quantile(q)
            for chunk in _chunks(values, list(range(0, len(values), 128))):
                chunked.observe_many(chunk)
            assert whole.state_json() == oracle.state_json(), (kind, q)
            assert chunked.state_json() == oracle.state_json(), (kind, q)


class TestP2Accuracy:
    @pytest.mark.parametrize("q", [50.0, 95.0, 99.0])
    @pytest.mark.parametrize("kind", ["uniform", "exponential"])
    def test_within_documented_rank_tolerance(self, q, kind):
        values = _stream(kind, P2_MIN_SAMPLES_FOR_BOUND, seed=7)
        sketch = P2Quantile(q)
        sketch.observe_many(values)
        lo, hi = _exact_band(values, q)
        assert lo <= sketch.value <= hi, (
            f"{kind} q={q}: estimate {sketch.value} outside [{lo}, {hi}]"
        )

    @pytest.mark.parametrize("q", [50.0, 95.0, 99.0])
    @pytest.mark.parametrize("kind", ["ascending", "descending"])
    def test_sorted_streams_within_worst_case_tolerance(self, q, kind):
        # Monotone input is P²'s documented worst case: the parabolic
        # marker prediction lags the drifting distribution.
        values = _stream(kind, P2_MIN_SAMPLES_FOR_BOUND, seed=7)
        sketch = P2Quantile(q)
        sketch.observe_many(values)
        lo, hi = _exact_band(values, q, tolerance=P2_SORTED_RANK_TOLERANCE)
        assert lo <= sketch.value <= hi, (
            f"{kind} q={q}: estimate {sketch.value} outside [{lo}, {hi}]"
        )

    def test_exact_below_six_observations(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        for n in range(1, len(values) + 1):
            sketch = P2Quantile(95.0)
            sketch.observe_many(values[:n])
            assert sketch.value == nearest_rank(sorted(values[:n]), 95.0)

    def test_memory_is_constant(self):
        sketch = P2Quantile(99.0)
        sketch.observe_many(float(i % 977) for i in range(20_000))
        # O(1) state: exactly five marker heights/positions regardless
        # of stream length.
        assert len(sketch._heights) == 5
        assert len(sketch._positions) == 5

    def test_empty_sketch_has_no_value(self):
        with pytest.raises(ConfigError, match="no observations"):
            P2Quantile(50.0).value

    @pytest.mark.parametrize("q", [0.0, 100.0, -3.0, 250.0])
    def test_percentile_domain_validated(self, q):
        with pytest.raises(ConfigError, match="must be in"):
            P2Quantile(q)


class TestP2Determinism:
    def test_state_json_is_byte_deterministic(self):
        streams = [_stream("exponential", 5000, seed=11) for _ in range(2)]
        states = []
        for values in streams:
            sketch = P2Quantile(95.0)
            sketch.observe_many(values)
            states.append(sketch.state_json())
        assert states[0] == states[1]

    def test_round_trip_through_dict(self):
        sketch = P2Quantile(99.0)
        sketch.observe_many(_stream("uniform", 1000, seed=3))
        clone = P2Quantile.from_dict(sketch.to_dict())
        assert clone.state_json() == sketch.state_json()
        # Both continue identically after the round trip.
        tail = _stream("uniform", 100, seed=4)
        sketch.observe_many(tail)
        clone.observe_many(tail)
        assert clone.state_json() == sketch.state_json()


class TestStreamingQuantiles:
    @given(st.lists(st.floats(0.1, 1e4), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_exact_mode_quantiles_are_monotone(self, values):
        # Below the five-sample buffer every sketch answers with exact
        # nearest rank, which is monotone in q by construction.
        stream = StreamingQuantiles((50.0, 95.0, 99.0))
        stream.observe_many(values)
        assert (
            stream.quantile(50.0)
            <= stream.quantile(95.0)
            <= stream.quantile(99.0)
        )

    def test_large_stream_quantiles_are_monotone(self):
        # The sketches estimate independently, so monotonicity across
        # percentiles is an accuracy property: it holds once each
        # estimate is within its documented rank tolerance.
        stream = StreamingQuantiles((50.0, 95.0, 99.0))
        stream.observe_many(
            _stream("exponential", P2_MIN_SAMPLES_FOR_BOUND, seed=21)
        )
        assert (
            stream.quantile(50.0)
            <= stream.quantile(95.0)
            <= stream.quantile(99.0)
            <= stream.max
        )

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_moments_match_plain_arithmetic(self, values):
        stream = StreamingQuantiles((50.0,))
        stream.observe_many(values)
        assert stream.count == len(values)
        assert stream.max == max(values)
        assert stream.mean == pytest.approx(sum(values) / len(values))

    def test_untracked_percentile_rejected(self):
        stream = StreamingQuantiles((50.0,))
        stream.observe_many([1.0])
        with pytest.raises(ConfigError, match="not tracked"):
            stream.quantile(95.0)

    def test_needs_percentiles(self):
        with pytest.raises(ConfigError, match="at least one percentile"):
            StreamingQuantiles(())

    def test_empty_stream_moments(self):
        stream = StreamingQuantiles((50.0,))
        assert stream.mean == 0.0
        assert stream.max == 0.0
        assert "sketches" in stream.to_dict()


class TestRollingWindow:
    def test_prunes_by_time(self):
        window = RollingWindow(window_s=2.0)
        for t in range(6):
            window.observe(float(t), float(t))
        # At t=5, the cutoff is 3.0: samples 3, 4, 5 remain.
        assert len(window) == 3
        assert window.percentile(100.0) == 5.0

    def test_caps_sample_count(self):
        window = RollingWindow(window_s=100.0, max_samples=8)
        for t in range(50):
            window.observe(float(t) / 10.0, float(t))
        assert len(window) == 8
        assert window.percentile(1.0) == 42.0  # oldest retained sample

    def test_empty_window_percentile_is_zero(self):
        assert RollingWindow(1.0).percentile(95.0) == 0.0

    def test_percentile_with_now_prunes_first(self):
        window = RollingWindow(window_s=1.0)
        window.observe(0.0, 10.0)
        window.observe(5.0, 20.0)
        # now=5.8 with a 1 s window prunes the t=0 sample only.
        assert window.percentile(50.0, now_s=5.8) == 20.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RollingWindow(0.0)
        with pytest.raises(ConfigError):
            RollingWindow(1.0, max_samples=0)

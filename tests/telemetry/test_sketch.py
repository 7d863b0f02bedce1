"""P² sketch properties: accuracy bound, monotonicity, determinism.

The accuracy contract documented in :mod:`repro.obs.telemetry.sketch`:
on streams of at least ``P2_MIN_SAMPLES_FOR_BOUND`` observations the P²
estimate of percentile ``q`` lies between the exact nearest-rank values
at ``q - P2_RANK_TOLERANCE`` and ``q + P2_RANK_TOLERANCE``.  Verified
on seeded random streams, adversarial pre-sorted streams, and via
hypothesis-generated small streams for the exact-mode fallback.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.telemetry.sketch import (
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
    raise AssertionError(kind)


class TestP2Accuracy:
    @pytest.mark.parametrize("q", [50.0, 95.0, 99.0])
    @pytest.mark.parametrize("kind", ["uniform", "exponential"])
    def test_within_documented_rank_tolerance(self, q, kind):
        values = _stream(kind, P2_MIN_SAMPLES_FOR_BOUND, seed=7)
        sketch = P2Quantile(q)
        for v in values:
            sketch.observe(v)
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
        for v in values:
            sketch.observe(v)
        lo, hi = _exact_band(values, q, tolerance=P2_SORTED_RANK_TOLERANCE)
        assert lo <= sketch.value <= hi, (
            f"{kind} q={q}: estimate {sketch.value} outside [{lo}, {hi}]"
        )

    def test_exact_below_six_observations(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        for n in range(1, len(values) + 1):
            sketch = P2Quantile(95.0)
            for v in values[:n]:
                sketch.observe(v)
            assert sketch.value == nearest_rank(sorted(values[:n]), 95.0)

    def test_memory_is_constant(self):
        sketch = P2Quantile(99.0)
        for i in range(20_000):
            sketch.observe(float(i % 977))
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
            for v in values:
                sketch.observe(v)
            states.append(sketch.state_json())
        assert states[0] == states[1]

    def test_round_trip_through_dict(self):
        sketch = P2Quantile(99.0)
        for v in _stream("uniform", 1000, seed=3):
            sketch.observe(v)
        clone = P2Quantile.from_dict(sketch.to_dict())
        assert clone.state_json() == sketch.state_json()
        # Both continue identically after the round trip.
        for v in _stream("uniform", 100, seed=4):
            sketch.observe(v)
            clone.observe(v)
        assert clone.state_json() == sketch.state_json()


class TestStreamingQuantiles:
    @given(st.lists(st.floats(0.1, 1e4), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_exact_mode_quantiles_are_monotone(self, values):
        # Below the five-sample buffer every sketch answers with exact
        # nearest rank, which is monotone in q by construction.
        stream = StreamingQuantiles((50.0, 95.0, 99.0))
        for v in values:
            stream.observe(v)
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
        for v in _stream("exponential", P2_MIN_SAMPLES_FOR_BOUND, seed=21):
            stream.observe(v)
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
        for v in values:
            stream.observe(v)
        assert stream.count == len(values)
        assert stream.max == max(values)
        assert stream.mean == pytest.approx(sum(values) / len(values))

    def test_untracked_percentile_rejected(self):
        stream = StreamingQuantiles((50.0,))
        stream.observe(1.0)
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

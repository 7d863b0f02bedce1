"""Property-based invariant tests over randomized inputs.

Plain stdlib ``random`` with fixed seeds — no extra dependencies, and
every run exercises the identical ~200 cases per property.  Each test
states an invariant the system leans on (energy integration, unit
round-trips, content-addressed hashing) and hammers it with generated
inputs rather than hand-picked examples.
"""

from __future__ import annotations

import random

import pytest

from repro import units
from repro.campaign.hashing import canonical_json, result_key
from repro.jpwr.energy import integrate_energy_wh
from repro.jpwr.frame import DataFrame

CASES = 200


def power_frame(rng: random.Random, *, columns=("gpu0",)) -> DataFrame:
    """A random but valid sample frame: monotonic time, power >= 0."""
    n = rng.randint(2, 40)
    t, now = [], 0.0
    for _ in range(n):
        now += rng.uniform(0.0, 5.0)
        t.append(now)
    df = DataFrame(["time_s", *columns])
    for i in range(n):
        row = {"time_s": t[i]}
        for col in columns:
            row[col] = rng.uniform(0.0, 700.0)
        df.add_row(row)
    return df


class TestEnergyIntegration:
    def test_energy_is_non_negative_for_non_negative_power(self):
        rng = random.Random(0xE4E51)
        for _ in range(CASES):
            df = power_frame(rng)
            assert integrate_energy_wh(df)["gpu0"] >= 0.0

    def test_energy_is_additive_over_split_intervals(self):
        # Integrating [t0, tk] equals integrating [t0, ti] + [ti, tk]
        # for any interior sample point — the trapezoid rule has no
        # boundary effects at sample points.
        rng = random.Random(0xADD17)
        for _ in range(CASES):
            df = power_frame(rng)
            n = len(df)
            i = rng.randint(1, n - 1)
            whole = integrate_energy_wh(df)["gpu0"]
            left = DataFrame(df.columns)
            right = DataFrame(df.columns)
            for j in range(n):
                if j <= i:
                    left.add_row(df.row(j))
                if j >= i:
                    right.add_row(df.row(j))
            if len(left) < 2 or len(right) < 2:
                continue
            split = (
                integrate_energy_wh(left)["gpu0"]
                + integrate_energy_wh(right)["gpu0"]
            )
            assert split == pytest.approx(whole, rel=1e-9, abs=1e-12)

    def test_constant_power_integrates_exactly(self):
        rng = random.Random(0xC0457)
        for _ in range(CASES):
            df = power_frame(rng)
            level = rng.uniform(1.0, 500.0)
            flat = DataFrame(df.columns)
            for row in df.rows():
                flat.add_row({"time_s": row["time_s"], "gpu0": level})
            span = flat["time_s"][-1] - flat["time_s"][0]
            expected = units.joules_to_wh(level * span)
            assert integrate_energy_wh(flat)["gpu0"] == pytest.approx(expected)


class TestUnitRoundTrips:
    def test_wh_joules_round_trip(self):
        rng = random.Random(0x30115)
        for _ in range(CASES):
            value = rng.uniform(1e-9, 1e9)
            assert units.joules_to_wh(value) * units.JOULES_PER_WH == pytest.approx(
                value, rel=1e-12
            )
            assert units.joules_to_wh(value * units.JOULES_PER_WH) == pytest.approx(
                value, rel=1e-12
            )

    def test_byte_helpers_scale_exactly(self):
        rng = random.Random(0xB17E5)
        for _ in range(CASES):
            whole = rng.randint(1, 10_000)
            assert units.gb(whole) == whole * 10**9
            assert units.mb(whole) == whole * 10**6
            assert units.gbps(whole) == pytest.approx(whole * 1e9)
            assert units.gbit_s(whole) == pytest.approx(whole * 1e9 / 8.0)
            assert units.tflops(whole) == pytest.approx(whole * 1e12)

    def test_per_wh_consistency(self):
        # per_wh(rate, power) * power == rate * 3600: the efficiency
        # metric is exactly "work per hour at this draw".
        rng = random.Random(0x9E12)
        for _ in range(CASES):
            rate = rng.uniform(0.0, 1e6)
            power = rng.uniform(1e-3, 1e4)
            eff = units.per_wh(rate, power)
            assert eff >= 0.0
            assert eff * power == pytest.approx(rate * 3600.0, rel=1e-12)


def random_parameters(rng: random.Random) -> dict[str, str]:
    n = rng.randint(1, 8)
    return {
        f"k{rng.randrange(100)}": str(rng.randrange(10_000)) for _ in range(n)
    }


class TestResultKeyProperties:
    def test_key_is_insensitive_to_dict_key_order(self):
        rng = random.Random(0x0D3)
        for _ in range(CASES):
            params = random_parameters(rng)
            items = list(params.items())
            rng.shuffle(items)
            shuffled = dict(items)
            assert result_key("step", params, calibration_hash="cal") == result_key(
                "step", shuffled, calibration_hash="cal"
            )

    def test_distinct_inputs_give_distinct_keys(self):
        rng = random.Random(0xD15)
        seen: dict[str, tuple] = {}
        for _ in range(CASES):
            params = random_parameters(rng)
            fault_hash = rng.choice([None, "plan-a", "plan-b"])
            key = result_key(
                "step", params, calibration_hash="cal", fault_hash=fault_hash
            )
            identity = (canonical_json(params), fault_hash)
            if key in seen:
                assert seen[key] == identity  # same key => same input
            seen[key] = identity

    def test_fault_hash_always_changes_the_key(self):
        rng = random.Random(0xFA17)
        for _ in range(CASES):
            params = random_parameters(rng)
            clean = result_key("step", params, calibration_hash="cal")
            chaos = result_key(
                "step", params, calibration_hash="cal", fault_hash="f" * 32
            )
            assert clean != chaos

    def test_canonical_json_sorts_keys(self):
        rng = random.Random(0xCA0)
        for _ in range(CASES):
            params = random_parameters(rng)
            items = list(params.items())
            rng.shuffle(items)
            assert canonical_json(dict(items)) == canonical_json(params)

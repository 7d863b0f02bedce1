"""Unit helpers used across the package.

All internal computation uses SI base units: bytes, seconds, FLOP,
Watt, Joule.  The helpers below exist so that hardware catalogs can be
written in the units the paper uses (GB, TFLOP/s, GB/s, Wh) without
sprinkling powers of ten through the code.

The paper reports energies in watt-hours (Wh) and throughput in
tokens/s and images/s; conversion helpers for those reporting units
live here as well.
"""

from __future__ import annotations

from repro.errors import ConfigError

# --- multipliers -----------------------------------------------------------

MEGA = 1e6
GIGA = 1e9
TERA = 1e12

SECONDS_PER_HOUR = 3600.0
JOULES_PER_WH = 3600.0


def gb(value: float) -> int:
    """Decimal gigabytes to bytes (vendors quote memory decimal)."""
    return int(value * GIGA)


def mb(value: float) -> int:
    """Decimal megabytes to bytes."""
    return int(value * MEGA)


def gbps(value: float) -> float:
    """GB/s to bytes/s."""
    return value * GIGA


def gbit_s(value: float) -> float:
    """Gbit/s to bytes/s (network links are quoted in bits)."""
    return value * GIGA / 8.0


def tflops(value: float) -> float:
    """TFLOP/s to FLOP/s."""
    return value * TERA


def joules_to_wh(value_j: float) -> float:
    """Joules to watt-hours, the paper's energy reporting unit."""
    return value_j / JOULES_PER_WH


def per_wh(rate_per_s: float, power_w: float) -> float:
    """Convert a rate (1/s) at a given power draw (W) to 1/Wh.

    This is the paper's energy-efficiency metric: e.g. a device doing
    ``rate_per_s`` tokens/s while drawing ``power_w`` watts processes
    ``rate_per_s * 3600 / power_w`` tokens per watt-hour.

    Raises :class:`~repro.errors.ConfigError` (the package-wide error
    hierarchy, not a bare ``ValueError``) on non-positive power; this is
    the only raise in this module — the remaining helpers are pure
    multiplications.
    """
    if power_w <= 0:
        raise ConfigError(f"power must be positive, got {power_w}")
    return rate_per_s * SECONDS_PER_HOUR / power_w

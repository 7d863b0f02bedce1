"""Energy derivation from sampled power data.

Mirrors jpwr's post-processing: the sampling loop produces a DataFrame
of timestamps and per-device power columns; at scope exit the total
energy per device is computed by trapezoidal integration and reported
in watt-hours (the paper's unit).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MeasurementError
from repro.jpwr.frame import DataFrame
from repro.units import JOULES_PER_WH, joules_to_wh

TIME_COLUMN = "time_s"


def integrate_energy_wh(df: DataFrame) -> dict[str, float]:
    """Integrate each power column of a sample frame to energy (Wh).

    Parameters
    ----------
    df:
        Sample frame with a monotonically non-decreasing
        :data:`TIME_COLUMN` (seconds) and one or more power columns
        (watts).

    Returns
    -------
    dict mapping each power column name to its integrated energy in Wh.

    Raises
    ------
    MeasurementError
        On a missing time column, non-monotonic timestamps, or a frame
        with fewer than two samples (no interval to integrate).
    """
    if TIME_COLUMN not in df:
        raise MeasurementError(f"frame lacks time column {TIME_COLUMN!r}")
    t = np.asarray(df[TIME_COLUMN], dtype=float)
    if len(t) < 2:
        raise MeasurementError(
            f"need at least 2 samples to integrate energy, got {len(t)}"
        )
    if np.any(np.diff(t) < 0):
        raise MeasurementError("timestamps are not monotonically non-decreasing")
    energies: dict[str, float] = {}
    for column in df.columns:
        if column == TIME_COLUMN:
            continue
        p = np.asarray(df[column], dtype=float)
        energies[column] = joules_to_wh(float(np.trapezoid(p, t)))
    return energies


def cumulative_energy_wh(
    df: DataFrame,
    columns: list[str] | tuple[str, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Running energy integral over (a subset of) the power columns.

    Returns ``(times, cumulative_wh)`` where ``cumulative_wh[i]`` is the
    trapezoidal energy integrated from the first sample up to
    ``times[i]``, summed over ``columns`` (all power columns when
    omitted).  Because the simulation's power profile is piecewise
    constant with samples at every transition, interpolating this curve
    (``np.interp``) yields the exact energy of any sub-interval — the
    serving simulator uses it to attribute measured energy to individual
    requests.

    Raises :class:`~repro.errors.MeasurementError` under the same
    conditions as :func:`integrate_energy_wh`, plus on an unknown or
    empty column selection.
    """
    if TIME_COLUMN not in df:
        raise MeasurementError(f"frame lacks time column {TIME_COLUMN!r}")
    t = np.asarray(df[TIME_COLUMN], dtype=float)
    if len(t) < 2:
        raise MeasurementError(
            f"need at least 2 samples to integrate energy, got {len(t)}"
        )
    if np.any(np.diff(t) < 0):
        raise MeasurementError("timestamps are not monotonically non-decreasing")
    if columns is None:
        columns = [c for c in df.columns if c != TIME_COLUMN]
    if not columns:
        raise MeasurementError("no power columns selected")
    missing = [c for c in columns if c not in df]
    if missing:
        raise MeasurementError(f"frame lacks power columns {missing}")
    total = np.zeros(len(t), dtype=float)
    for column in columns:
        total += np.asarray(df[column], dtype=float)
    increments = 0.5 * (total[1:] + total[:-1]) * np.diff(t)
    cumulative_j = np.concatenate(([0.0], np.cumsum(increments)))
    return t, cumulative_j / JOULES_PER_WH


def cumulative_at(
    times: np.ndarray, cumulative: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Cumulative energy (Wh) at arbitrary instants, vectorized.

    One ``np.interp`` over every phase boundary of a serving run —
    the basis of the incremental attribution cursor: the fast and
    reference serve engines interpolate each boundary exactly once
    instead of re-slicing the curve per request, and difference the
    interpolated values to price phases and residencies.

    Raises :class:`~repro.errors.MeasurementError` when the curve is
    degenerate (fewer than two samples).
    """
    if len(times) < 2:
        raise MeasurementError(
            f"need at least 2 curve samples to interpolate, got {len(times)}"
        )
    return np.interp(bounds, times, cumulative)


def energy_frame(df: DataFrame) -> DataFrame:
    """jpwr's ``energy_df``: one row of integrated Wh per power column."""
    energies = integrate_energy_wh(df)
    out = DataFrame(energies.keys())
    out.add_row(energies)
    return out

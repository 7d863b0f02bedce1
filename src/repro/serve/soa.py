"""Per-request energy attribution of the single-engine serving loop.

:func:`attribute_request_energy_wh` is the **incremental energy
cursor**: instead of re-slicing the jpwr cumulative curve per request
(O(steps × batch) interpolations), it interpolates each phase boundary
once, builds the running cumulative-Wh cursor of per-step *shares*
with one sequential accumulation, and charges each request the cursor
difference across its residency plus its own prefill.
"""

from __future__ import annotations

import numpy as np

from repro.jpwr.energy import cumulative_at


def attribute_request_energy_wh(
    times: np.ndarray,
    cumulative: np.ndarray,
    *,
    prefill_events: list[tuple[int, float, float]],
    step_t0: list[float],
    step_t1: list[float],
    step_batch: list[int],
    spans: list[tuple[int, int, int]],
) -> dict[int, float]:
    """Per-request measured energy from one run's phase bookkeeping.

    Parameters
    ----------
    times / cumulative:
        The jpwr cumulative-energy curve
        (:func:`repro.jpwr.energy.cumulative_energy_wh`).
    prefill_events:
        ``(request_index, t0, t1)`` per prefill phase, execution order.
    step_t0 / step_t1 / step_batch:
        Bounds and batch size of every decode step, execution order.
    spans:
        ``(request_index, first_step, last_step)`` per completed
        request: the inclusive 0-based range of decode steps the
        request participated in.  Continuous batching keeps residency
        contiguous, which is what lets a cursor difference replace
        per-step membership lists.

    Returns the request-index -> Wh mapping.  Each request is charged
    its full prefill plus the running share-cursor difference across
    its decode residency; the cursor accumulates ``step_wh / batch``
    sequentially in execution order, so identical inputs produce
    identical floats however they were recorded.
    """
    n_p = len(prefill_events)
    n_s = len(step_t0)
    bounds = np.empty(2 * (n_p + n_s), dtype=np.float64)
    for i, (_, t0, t1) in enumerate(prefill_events):
        bounds[2 * i] = t0
        bounds[2 * i + 1] = t1
    base = 2 * n_p
    bounds[base::2] = step_t0
    bounds[base + 1 :: 2] = step_t1
    values = cumulative_at(times, cumulative, bounds)
    prefill_wh = values[1 : base : 2] - values[0:base:2]
    step_wh = values[base + 1 :: 2] - values[base::2]
    share = step_wh / np.asarray(step_batch, dtype=np.float64)
    # The incremental cursor: cursor[k] is the cumulative per-member
    # share after step k-1.  np.add.accumulate is a sequential left
    # fold, matching scalar `cursor += share` accumulation exactly.
    cursor = np.empty(n_s + 1, dtype=np.float64)
    cursor[0] = 0.0
    if n_s:
        cursor[1:] = np.add.accumulate(share)
    energy: dict[int, float] = {}
    for i, (idx, _, _) in enumerate(prefill_events):
        energy[idx] = energy.get(idx, 0.0) + float(prefill_wh[i])
    for idx, first, last in spans:
        decode_wh = float(cursor[last + 1] - cursor[first])
        energy[idx] = energy.get(idx, 0.0) + decode_wh
    return energy

"""Unit coverage for the serving loops' building blocks.

The differential suite proves end-to-end equality; these tests pin the
small contracts directly — heap ordering, withdrawn entries and the
underflow guard, and the scheduler's KV reservation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.inference import InferenceEngine
from repro.errors import MeasurementError
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.serve import ContinuousBatchScheduler, PoissonArrivals
from repro.serve.events import EventHeap

pytestmark = [pytest.mark.serve]


class TestEventHeap:
    def test_pops_in_time_order(self):
        heap = EventHeap()
        for t in (3.0, 1.0, 2.0):
            heap.push(t)
        assert [heap.pop_due(), heap.pop_due(), heap.pop_due()] == [
            1.0,
            2.0,
            3.0,
        ]

    def test_duplicates_drain_in_one_pop(self):
        heap = EventHeap()
        for t in (1.0, 1.0, 1.0, 2.0):
            heap.push(t)
        assert heap.pop_due() == 1.0
        assert len(heap) == 1
        assert heap.pop_due() == 2.0

    def test_push_at_or_after_clamps_overdue_times(self):
        heap = EventHeap()
        heap.push_at_or_after(0.5, 2.0)  # already due: lands at now
        heap.push_at_or_after(3.0, 2.0)  # future: lands as-is
        assert heap.pop_due() == 2.0
        assert heap.pop_due() == 3.0

    def test_underflow_is_a_measurement_error(self):
        with pytest.raises(MeasurementError, match="event-heap underflow"):
            EventHeap().pop_due()

    def test_withdrawn_times_are_skipped(self):
        heap = EventHeap()
        for t in (1.0, 2.0, 3.0):
            heap.push(t)
        heap.cancel(2.0)
        assert [heap.pop_due(), heap.pop_due()] == [1.0, 3.0]

    def test_cancel_withdraws_one_entry_of_a_time(self):
        heap = EventHeap()
        for t in (1.0, 1.0, 2.0):
            heap.push(t)
        heap.cancel(1.0)
        assert heap.pop_due() == 1.0  # one entry at 1.0 is still live
        assert heap.pop_due() == 2.0

    def test_only_withdrawn_entries_left_is_an_underflow(self):
        heap = EventHeap()
        heap.push(1.0)
        heap.cancel(1.0)
        with pytest.raises(MeasurementError, match="event-heap underflow"):
            heap.pop_due()


class TestKVReservation:
    ARRIVALS = PoissonArrivals(
        rate_per_s=10.0,
        requests=16,
        prompt_tokens=128,
        generate_tokens=24,
        length_spread=0.25,
        seed=3,
    )

    def test_kv_bytes_match_the_scalar_multiply_exactly(self):
        # One multiply by the per-token bytes computed at construction,
        # bit-identical to multiplying per request and to the vectorized
        # multiply over the whole stream.
        engine = InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))
        scheduler = ContinuousBatchScheduler(engine, batch_cap=8)
        per_token = engine.model.kv_cache_bytes_per_token()
        requests = self.ARRIVALS.generate()
        vectorized = (
            np.array([r.context_tokens for r in requests], dtype=np.float64)
            * float(per_token)
        ).tolist()
        for request, expected in zip(requests, vectorized):
            kv = scheduler.kv_bytes_for(request)
            assert kv == request.context_tokens * per_token == expected
            assert isinstance(kv, float)

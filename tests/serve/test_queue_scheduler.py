"""Admission queue bounds and continuous-batching scheduler accounting."""

from __future__ import annotations

import heapq
import itertools
import random
from types import SimpleNamespace

import pytest

from repro.engine.inference import InferenceEngine
from repro.errors import ConfigError
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.serve import AdmissionQueue, ContinuousBatchScheduler, Request
from serve_oracle import step_completed


def request(index: int, prompt: int = 128, generate: int = 16) -> Request:
    return Request(
        index=index, arrival_s=0.0, prompt_tokens=prompt, generate_tokens=generate
    )


@pytest.fixture
def engine():
    return InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))


class TestQueue:
    def test_fifo_order(self):
        q = AdmissionQueue(capacity=4)
        for i in range(3):
            assert q.offer(request(i))
        assert q.waiting[0].index == 0
        assert [q.pop().index for _ in range(3)] == [0, 1, 2]
        assert not q.waiting and len(q) == 0

    def test_overflow_rejects_and_records(self):
        q = AdmissionQueue(capacity=2)
        assert q.offer(request(0)) and q.offer(request(1))
        assert not q.offer(request(2))
        assert len(q) == 2
        assert [r.index for r in q.rejected] == [2]

    def test_pop_empty_raises(self):
        with pytest.raises(ConfigError):
            AdmissionQueue(capacity=1).pop()

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            AdmissionQueue(capacity=0)


class TestScheduler:
    def test_batch_cap_gates_admission(self, engine):
        sched = ContinuousBatchScheduler(engine, batch_cap=2)
        sched.admit(request(0), 0.0)
        sched.admit(request(1), 0.0)
        assert not sched.fits(request(2))
        with pytest.raises(ConfigError):
            sched.admit(request(2), 0.0)

    def test_kv_reservation_matches_engine_accounting(self, engine):
        sched = ContinuousBatchScheduler(engine, batch_cap=8)
        r = request(0, prompt=512, generate=256)
        expected = r.context_tokens * engine.model.kv_cache_bytes_per_token()
        assert sched.kv_bytes_for(r) == pytest.approx(expected)
        sched.admit(r, 0.0)
        assert sched.kv_reserved_bytes == pytest.approx(expected)

    def test_kv_budget_gates_admission(self, engine):
        r = request(0, prompt=512, generate=256)
        per_seq = ContinuousBatchScheduler(engine, batch_cap=64).kv_bytes_for(r)
        sched = ContinuousBatchScheduler(
            engine, batch_cap=64, kv_budget_bytes=per_seq * 2.5
        )
        sched.admit(request(0, prompt=512, generate=256), 0.0)
        sched.admit(request(1, prompt=512, generate=256), 0.0)
        assert not sched.fits(request(2, prompt=512, generate=256))

    def test_admissible_raises_for_impossible_request(self, engine):
        r = request(0, prompt=512, generate=256)
        per_seq = ContinuousBatchScheduler(engine, batch_cap=4).kv_bytes_for(r)
        sched = ContinuousBatchScheduler(
            engine, batch_cap=4, kv_budget_bytes=per_seq * 0.5
        )
        with pytest.raises(ConfigError, match="KV cache"):
            sched.admissible(r)
        sched.admissible(request(1, prompt=8, generate=1))  # tiny one is fine

    def test_step_advances_stamps_and_evicts(self, engine):
        sched = ContinuousBatchScheduler(engine, batch_cap=4)
        short = sched.admit(request(0, generate=1), 0.0)
        long = sched.admit(request(1, generate=3), 0.0)
        finished = step_completed(sched, 1.0)
        assert [s.request.index for s in finished] == [0]
        assert short.first_token_s == 1.0 and long.first_token_s == 1.0
        assert long.generated == 1 and not long.done
        assert sched.batch_size == 1
        step_completed(sched, 2.0)
        assert [s.request.index for s in step_completed(sched, 3.0)] == [1]
        assert long.first_token_s == 1.0  # not re-stamped

    def test_eviction_releases_kv_and_drift_absorbed(self, engine):
        sched = ContinuousBatchScheduler(engine, batch_cap=4)
        sched.admit(request(0, generate=1), 0.0)
        sched.admit(request(1, generate=2), 0.0)
        reserved_two = sched.kv_reserved_bytes
        step_completed(sched, 1.0)
        assert 0 < sched.kv_reserved_bytes < reserved_two
        step_completed(sched, 2.0)
        assert sched.batch_size == 0
        assert sched.kv_reserved_bytes == 0.0

    def test_sequences_compare_by_identity(self, engine):
        # Two residents made of one request at one time are still two
        # sequences: eviction removes the one that finished.
        sched = ContinuousBatchScheduler(engine, batch_cap=4)
        r = request(0, generate=2)
        first, second = sched.admit(r, 0.0), sched.admit(r, 0.0)
        assert first != second
        sched.evict([first])
        assert sched.active == [second] and sched.active[0] is second

    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_evicting_popped_completions_equals_the_walk(
        self, engine, seed, fractional
    ):
        # The serving loops pop each step's completions from a heap of
        # (completion step, admission order) and evict them directly.
        # The walk over the batch (the oracle's ``step_completed``) must
        # find the same sequences in the same order, and both must leave
        # the reserved bytes of a ledger that releases each step's
        # finished sequences in admission order, bit for bit.  A model
        # reserves whole bytes per token, where every release order
        # gives the same sum; a fractional per-token size makes the
        # order show in the bits.
        if fractional:
            engine = SimpleNamespace(
                model=SimpleNamespace(kv_cache_bytes_per_token=lambda: 1e5 / 3),
                kv_budget_bytes=lambda: 1e12,
            )
        rng = random.Random(seed)
        walked = ContinuousBatchScheduler(engine, batch_cap=16)
        popped = ContinuousBatchScheduler(engine, batch_cap=16)
        pending = [
            request(i, prompt=rng.choice((64, 128, 512)), generate=rng.randint(1, 6))
            for i in range(rng.randint(6, 14))
        ]
        heap: list[tuple[int, int, object]] = []
        order = itertools.count()
        ledger, resident = 0.0, []
        step = 0
        while pending or walked.active:
            # Admissions between steps make sequences admitted at
            # different steps complete at the same one.
            for r in pending[: rng.randint(0, 3)]:
                walked.admit(r, float(step))
                seq = popped.admit(r, float(step))
                heapq.heappush(heap, (step + r.generate_tokens, next(order), seq))
                ledger += popped.kv_bytes_for(r)
                resident.append(r)
                pending.remove(r)
            if not walked.active:
                continue
            step += 1
            expected = step_completed(walked, float(step))
            finished = []
            while heap and heap[0][0] == step:
                finished.append(heapq.heappop(heap)[2])
            popped.evict(finished)
            indices = [s.request.index for s in finished]
            assert indices == [s.request.index for s in expected]
            for r in [r for r in resident if r.index in indices]:
                resident.remove(r)
                ledger -= popped.kv_bytes_for(r)
            if not resident:
                ledger = 0.0
            assert popped.kv_reserved_bytes.hex() == ledger.hex()
            assert walked.kv_reserved_bytes.hex() == ledger.hex()
            assert [s.request for s in popped.active] == resident
        assert popped.kv_reserved_bytes == 0.0 and not popped.active

    def test_no_budget_rejected_at_construction(self, engine):
        with pytest.raises(ConfigError, match="KV-cache budget"):
            ContinuousBatchScheduler(engine, batch_cap=4, kv_budget_bytes=0.0)
        with pytest.raises(ConfigError):
            ContinuousBatchScheduler(engine, batch_cap=0)

"""Admission queue bounds and continuous-batching scheduler accounting."""

from __future__ import annotations

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
        assert q.peek().index == 0
        assert [q.pop().index for _ in range(3)] == [0, 1, 2]
        assert q.peek() is None

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
        first.generated = r.generate_tokens
        assert sched.evict_done() == [first]
        assert sched.active == [second] and sched.active[0] is second

    def test_no_budget_rejected_at_construction(self, engine):
        with pytest.raises(ConfigError, match="KV-cache budget"):
            ContinuousBatchScheduler(engine, batch_cap=4, kv_budget_bytes=0.0)
        with pytest.raises(ConfigError):
            ContinuousBatchScheduler(engine, batch_cap=0)

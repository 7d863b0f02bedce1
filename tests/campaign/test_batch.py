"""Stream planning and batched dispatch (the parent half of the fast path)."""

from __future__ import annotations

import pytest

from repro.campaign.batch import (
    group_stream_batches,
    parse_operation,
    plan_streams,
    run_batches,
    stream_spec_for_item,
)
from repro.errors import JubeError
from repro.jube.runner import WorkItem
from repro.jube.steps import Step


def serve_item(index: int = 0, **params) -> WorkItem:
    defaults = {
        "system": "A100",
        "rate": "16",
        "requests": "32",
        "seed": "0",
    }
    defaults.update({k: str(v) for k, v in params.items()})
    step = Step(
        name="serve",
        operations=(
            "llm_serve --system $system --rate $rate --requests $requests "
            "--seed $seed",
        ),
    )
    return WorkItem(step=step, parameters=defaults, index=index)


def toy_item(index: int = 0) -> WorkItem:
    step = Step(name="toy", operations=("emit --value 1",))
    return WorkItem(step=step, parameters={}, index=index)


class TestParseOperation:
    def test_key_value_pairs(self):
        name, args = parse_operation("llm_serve --rate 8 --requests 32")
        assert name == "llm_serve"
        assert args == {"rate": "8", "requests": "32"}

    def test_bare_flag_becomes_true(self):
        _, args = parse_operation("llm_serve --rate 8 --verbose")
        assert args["verbose"] == "true"

    def test_positional_token_rejected(self):
        with pytest.raises(JubeError, match="unexpected token 'oops'"):
            parse_operation("llm_serve oops --rate 8")


class TestStreamSpecForItem:
    def test_serve_item_yields_spec(self):
        spec = stream_spec_for_item(serve_item(rate=16, requests=64, seed=3))
        assert spec is not None
        assert (spec.kind, spec.rate_per_s, spec.requests, spec.seed) == (
            "poisson", 16.0, 64, 3,
        )

    def test_cluster_sessions_yield_session_spec(self):
        step = Step(
            name="serve",
            operations=(
                "llm_serve_cluster --rate 16 --requests 64 --sessions 4",
            ),
        )
        spec = stream_spec_for_item(WorkItem(step=step, parameters={}, index=0))
        assert spec.kind == "session" and spec.sessions == 4

    def test_non_serve_item_is_none(self):
        assert stream_spec_for_item(toy_item()) is None

    def test_malformed_arguments_are_none_not_an_error(self):
        # Missing --rate: execution will surface the real error; planning
        # must stay best-effort.
        step = Step(name="serve", operations=("llm_serve --requests 64",))
        assert stream_spec_for_item(WorkItem(step=step, parameters={}, index=0)) is None

    def test_unresolved_substitution_is_none(self):
        step = Step(name="serve", operations=("llm_serve --rate $missing",))
        assert stream_spec_for_item(WorkItem(step=step, parameters={}, index=0)) is None


class TestPlanStreams:
    def test_one_stream_per_family_at_longest_count(self):
        items = [
            serve_item(0, requests=16),
            serve_item(1, requests=128),
            serve_item(2, requests=64),
        ]
        streams = plan_streams(items)
        assert len(streams) == 1
        (stream,) = streams.values()
        assert len(stream) == 128

    def test_distinct_seeds_are_distinct_families(self):
        streams = plan_streams([serve_item(0, seed=0), serve_item(1, seed=1)])
        assert len(streams) == 2

    def test_non_serve_items_plan_nothing(self):
        assert plan_streams([toy_item()]) == {}


class TestGroupStreamBatches:
    def test_families_do_not_mix_within_a_batch(self):
        items = [serve_item(i, seed=i % 2) for i in range(6)]
        batches = group_stream_batches(items)
        for batch in batches:
            families = {stream_spec_for_item(it).family for it in batch}
            assert len(families) == 1

    def test_batch_size_splits_large_families(self):
        items = [serve_item(i) for i in range(5)]
        batches = group_stream_batches(items, batch_size=2)
        assert [len(b) for b in batches] == [2, 2, 1]
        # input order preserved within the family
        assert [it.index for b in batches for it in b] == [0, 1, 2, 3, 4]

    def test_streamless_items_batch_together_at_the_end(self):
        items = [toy_item(0), serve_item(1), toy_item(2)]
        batches = group_stream_batches(items)
        assert [it.index for it in batches[-1]] == [0, 2]


class TestRunBatches:
    def test_executor_without_batched_seam_degrades(self):
        calls = []

        class PerItemExecutor:
            def run_items(self, items):
                calls.append(len(items))
                return [f"result-{it.index}" for it in items]

        batches = [[serve_item(0), serve_item(1)], [serve_item(2)]]
        results = run_batches(PerItemExecutor(), batches)
        assert calls == [2, 1]
        assert results == [["result-0", "result-1"], ["result-2"]]

    def test_batched_seam_is_preferred(self):
        class BatchedExecutor:
            def run_items(self, items):  # pragma: no cover - must not be hit
                raise AssertionError("batched seam should win")

            def run_item_batches(self, batches):
                return [[it.index for it in batch] for batch in batches]

        batches = [[serve_item(0)], [serve_item(1), serve_item(2)]]
        assert run_batches(BatchedExecutor(), batches) == [[0], [1, 2]]

"""Stream grouping (the parent half of the fast path)."""

from __future__ import annotations

import pytest

from repro.campaign.batch import (
    group_stream_batches,
    parse_operation,
    plan_streams,
    stream_spec_for_item,
)
from repro.errors import JubeError
from repro.jube.runner import WorkItem
from repro.jube.steps import Step
from repro.serve.arrivals import PoissonArrivals, SessionArrivals
from repro.serve.streams import stream_family


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
        arrivals = stream_spec_for_item(serve_item(rate=16, requests=64, seed=3))
        assert isinstance(arrivals, PoissonArrivals)
        assert (arrivals.rate_per_s, arrivals.requests, arrivals.seed) == (16.0, 64, 3)

    def test_cluster_sessions_yield_session_spec(self):
        step = Step(
            name="serve",
            operations=(
                "llm_serve_cluster --rate 16 --requests 64 --sessions 4",
            ),
        )
        arrivals = stream_spec_for_item(WorkItem(step=step, parameters={}, index=0))
        assert isinstance(arrivals, SessionArrivals) and arrivals.sessions == 4

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
    def test_one_group_per_family_in_input_order(self):
        items = [
            serve_item(0, seed=1, requests=16),
            serve_item(1, seed=0, requests=128),
            toy_item(2),
            serve_item(3, seed=1, requests=64),
        ]
        groups = plan_streams(items)
        assert [[it.index for it in group] for group in groups.values()] == [[0, 3], [1]]
        first = stream_spec_for_item(items[0])
        assert list(groups)[0] == stream_family(first)

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
            families = {stream_family(stream_spec_for_item(it)) for it in batch}
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

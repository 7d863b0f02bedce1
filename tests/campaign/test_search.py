"""Pruned Pareto search: policy, equivalence, and the pruning-safety contract."""

from __future__ import annotations

import pytest
import yaml

from repro.campaign.runner import CampaignRunner
from repro.campaign.search import (
    SearchPolicy,
    SearchRunner,
    _Candidate,
    load_search_spec,
)
from repro.campaign.spec import CampaignSpec, WorkloadSpec
from repro.campaign.store import (
    STATUS_COMPLETED,
    STATUS_PRUNED,
    JsonlStore,
    canonical_json,
)
from repro.campaign.executor import IsolatingExecutor
from repro.campaign.testing import build_toy_registry
from repro.errors import ConfigError

pytestmark = pytest.mark.serve


def serve_search_spec(requests: int = 96) -> CampaignSpec:
    """A 8-config sweep with real frontier spread (rates × batch caps)."""
    return CampaignSpec(
        name="search-sweep",
        systems=("A100", "GH200"),
        workloads=(
            WorkloadSpec.of_kind(
                "serve",
                axes={"arrival_rate": (8, 64), "batch_cap": (2, 16)},
                fixed={
                    "requests": str(requests),
                    "generate_tokens": "16",
                    "slo_ttft_ms": "200",
                },
            ),
        ),
    )


TIGHT = SearchPolicy(screen_requests=16, rungs=1, min_keep=2)


class TestPolicy:
    def test_defaults_are_valid(self):
        policy = SearchPolicy()
        assert policy.rungs == 2 and policy.min_keep == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"screen_requests": 0},
            {"growth": 1},
            {"rungs": 0},
            {"slack_attainment": -0.1},
            {"slack_energy": -0.1},
            {"slack_energy": 1.0},
            {"min_keep": 0},
            {"attainment_goal": 0.0},
            {"attainment_goal": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SearchPolicy(**kwargs)

    def test_first_budget_explicit_caps_at_full(self):
        assert SearchPolicy(screen_requests=64).first_budget(32) == 32
        assert SearchPolicy(screen_requests=64).first_budget(1000) == 64

    def test_first_budget_default_divides_with_floor(self):
        assert SearchPolicy().first_budget(6400) == 100
        assert SearchPolicy().first_budget(100) == 8  # MIN_SCREEN_REQUESTS
        assert SearchPolicy().first_budget(4) == 4  # never above full

    def test_rung_budget_grows_and_caps(self):
        policy = SearchPolicy(screen_requests=10, growth=4)
        assert SearchRunner._rung_budget(policy, 1000, 0) == 10
        assert SearchRunner._rung_budget(policy, 1000, 1) == 40
        assert SearchRunner._rung_budget(policy, 100, 2) == 100  # capped

    def test_from_dict_round_trips(self):
        policy = SearchPolicy(screen_requests=32, rungs=3, slack_energy=0.1)
        assert SearchPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            SearchPolicy.from_dict({"screen": 32})

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ConfigError):
            SearchPolicy.from_dict(["screen_requests"])

    def test_from_dict_of_none_is_default(self):
        assert SearchPolicy.from_dict(None) == SearchPolicy()


class TestLoadSearchSpec:
    def test_spec_and_policy_from_one_yaml(self, tmp_path):
        doc = {
            "name": "with-search",
            "systems": ["A100"],
            "workloads": [
                {
                    "kind": "serve",
                    "axes": {"arrival_rate": [8, 16]},
                    "fixed": {"requests": "32"},
                }
            ],
            "search": {"screen_requests": 16, "rungs": 1},
        }
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(doc))
        spec, policy = load_search_spec(path)
        assert spec.name == "with-search"
        assert (policy.screen_requests, policy.rungs) == (16, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_search_spec(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("{unclosed: [")
        with pytest.raises(ConfigError):
            load_search_spec(path)


class TestPrune:
    def cand(self, index, attainment, energy, scoreable=True):
        c = _Candidate(key=f"k{index}", index=index, item=None, full_requests=100)
        c.attainment, c.energy, c.scoreable = attainment, energy, scoreable
        return c

    def test_dominated_beyond_slack_is_pruned(self):
        policy = SearchPolicy(slack_attainment=0.02, slack_energy=0.05, min_keep=1)
        good = self.cand(0, 0.99, 1.0)
        bad = self.cand(1, 0.50, 2.0)
        survivors, pruned = SearchRunner._prune(policy, [good, bad])
        assert [c.index for c in survivors] == [0]
        assert [(c.index, d.index) for c, d in pruned] == [(1, 0)]

    def test_within_slack_survives(self):
        policy = SearchPolicy(slack_attainment=0.02, slack_energy=0.05, min_keep=1)
        a = self.cand(0, 0.99, 1.0)
        b = self.cand(1, 0.98, 1.02)  # within both slacks
        survivors, pruned = SearchRunner._prune(policy, [a, b])
        assert len(survivors) == 2 and not pruned

    def test_attainment_target_clamps_at_saturation(self):
        # Both attain 1.0: without the clamp nothing could ever dominate.
        policy = SearchPolicy(slack_attainment=0.02, slack_energy=0.05, min_keep=1)
        cheap = self.cand(0, 1.0, 1.0)
        dear = self.cand(1, 1.0, 2.0)
        survivors, pruned = SearchRunner._prune(policy, [cheap, dear])
        assert [c.index for c in survivors] == [0]
        assert [(c.index, d.index) for c, d in pruned] == [(1, 0)]

    def test_unscoreable_always_survives(self):
        policy = SearchPolicy(min_keep=1)
        dominator = self.cand(0, 1.0, 1.0)
        mystery = self.cand(1, None, None, scoreable=False)
        survivors, pruned = SearchRunner._prune(policy, [dominator, mystery])
        assert {c.index for c in survivors} == {0, 1} and not pruned

    def test_min_keep_reinstates_best_pruned(self):
        policy = SearchPolicy(slack_attainment=0.0, slack_energy=0.0, min_keep=3)
        cands = [
            self.cand(0, 1.0, 1.0),
            self.cand(1, 0.9, 2.0),
            self.cand(2, 0.8, 3.0),
        ]
        survivors, pruned = SearchRunner._prune(policy, cands)
        assert len(survivors) == 3 and not pruned


class TestSearchEquivalence:
    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("search")
        spec = serve_search_spec()
        grid_store = JsonlStore(tmp / "grid.jsonl")
        CampaignRunner(grid_store, IsolatingExecutor()).run(spec)
        search_store = JsonlStore(tmp / "search.jsonl")
        report = SearchRunner(search_store, executor=IsolatingExecutor()).search(
            spec, TIGHT
        )
        return spec, grid_store, search_store, report

    def test_some_configs_were_pruned(self, stores):
        _, _, _, report = stores
        assert report.pruned > 0
        assert report.executed + report.pruned == report.total == 8
        assert 0 < report.request_savings < 1
        assert report.screening_requests > 0

    def test_reported_rows_are_byte_identical_to_grid(self, stores):
        _, grid_store, _, report = stores
        exact = [r for r in report.rows if r.status == STATUS_COMPLETED]
        assert exact  # survivors exist
        for row in exact:
            grid_row = grid_store.get(row.key)
            assert canonical_json(row.to_dict()) == canonical_json(
                grid_row.to_dict()
            )

    def test_pruned_rows_carry_screening_provenance(self, stores):
        _, _, search_store, report = stores
        pruned = [r for r in report.rows if r.status == STATUS_PRUNED]
        assert len(pruned) == report.pruned
        survivor_keys = {
            r.key for r in report.rows if r.status == STATUS_COMPLETED
        }
        for row in pruned:
            out = row.outputs
            assert out["pruned"] is True
            assert out["screen_requests"] == 16
            assert out["rung"] == 0
            assert 0.0 <= out["screen_slo_attainment"] <= 1.0
            assert out["screen_energy_per_request_wh"] > 0
            assert out["dominated_by"] in survivor_keys
            # durably stored, not just reported
            assert search_store.get(row.key).status == STATUS_PRUNED

    def test_frontier_and_recommendation_come_from_exact_rows(self, stores):
        _, grid_store, _, report = stores
        assert report.frontier
        exact_keys = {
            r.key for r in report.rows if r.status == STATUS_COMPLETED
        }
        rec = report.recommendation
        assert rec is not None
        if rec.min_energy is not None:
            assert rec.min_energy.source in exact_keys

    def test_second_search_is_idempotent(self, stores):
        spec, _, search_store, report = stores
        again = SearchRunner(search_store, executor=IsolatingExecutor()).search(
            spec, TIGHT
        )
        assert (again.executed, again.screening_requests) == (0, 0)
        assert again.cached == report.executed
        assert again.pruned == report.pruned
        assert again.cached + again.pruned == again.total
        assert again.frontier == report.frontier

    def test_plain_run_converges_to_exhaustive_grid(self, stores):
        spec, grid_store, search_store, report = stores
        runner = CampaignRunner(search_store, IsolatingExecutor())
        converged = runner.run(spec)
        # exactly the pruned configs execute; survivors come from cache
        assert converged.executed == report.pruned
        assert converged.cached == report.executed
        for key in {r.key for r in grid_store.rows()}:
            assert canonical_json(search_store.get(key).to_dict()) == (
                canonical_json(grid_store.get(key).to_dict())
            )


class TestSearchEdges:
    def test_dependent_steps_rejected(self, tmp_path):
        spec = CampaignSpec(
            name="chain",
            systems=("A100",),
            workloads=(
                WorkloadSpec(name="prepare", operations=("emit --value 5",)),
                WorkloadSpec(
                    name="train",
                    operations=("emit --value 7",),
                    depends=("prepare",),
                ),
            ),
        )
        runner = SearchRunner(
            JsonlStore(tmp_path / "s.jsonl"),
            IsolatingExecutor(build_toy_registry),
        )
        with pytest.raises(ConfigError):
            runner.search(spec)

    def test_streamless_campaign_runs_everything_in_full(self, tmp_path):
        # Toy operations expose no arrival stream: nothing is screenable,
        # so the search degrades to exact exhaustive execution.
        spec = CampaignSpec(
            name="toy",
            systems=("A100", "H100"),
            workloads=(
                WorkloadSpec(
                    name="emit",
                    operations=("emit --value $x",),
                    axes={"x": ("1", "2", "3")},
                ),
            ),
        )
        runner = SearchRunner(
            JsonlStore(tmp_path / "s.jsonl"),
            IsolatingExecutor(build_toy_registry),
        )
        report = runner.search(spec, SearchPolicy(min_keep=1))
        assert (report.total, report.executed, report.pruned) == (6, 6, 0)
        assert report.screening_requests == 0

    def test_small_grids_skip_screening(self, tmp_path):
        # total <= min_keep: straight to full execution.
        spec = serve_search_spec(requests=16)
        report = SearchRunner(
            JsonlStore(tmp_path / "s.jsonl"), executor=IsolatingExecutor()
        ).search(spec, SearchPolicy(screen_requests=8, min_keep=8))
        assert (report.executed, report.pruned) == (8, 0)
        assert report.screening_requests == 0

    def test_failed_cached_rows_count_as_failed(self, tmp_path):
        spec = CampaignSpec(
            name="toy",
            systems=("A100",),
            workloads=(
                WorkloadSpec(
                    name="emit",
                    operations=("emit --value $x",),
                    axes={"x": ("1", "not-a-number")},
                ),
            ),
        )
        store = JsonlStore(tmp_path / "s.jsonl")
        runner = SearchRunner(store, IsolatingExecutor(build_toy_registry))
        first = runner.search(spec, SearchPolicy(min_keep=1))
        assert first.failed == 1
        second = runner.search(spec, SearchPolicy(min_keep=1))
        assert (second.cached, second.failed, second.executed) == (2, 1, 0)

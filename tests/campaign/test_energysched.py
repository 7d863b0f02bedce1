"""Tests for energy-aware campaign deferral planning."""

import pytest

from repro.analysis.carbon import IntensityPoint, IntensityTimeseries
from repro.campaign.energysched import plan_deferral
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, WorkloadSpec
from repro.campaign.store import JsonlStore
from repro.errors import ConfigError


def _spec():
    return CampaignSpec(
        name="defer-test",
        systems=("H100",),
        workloads=(
            WorkloadSpec.of_kind(
                "llm",
                name="capsweep",
                axes={"power_cap": ("0", "245")},
                fixed={
                    "global_batch_size": "128",
                    "exit_duration": "10",
                    "use_synthetic": "true",
                },
            ),
        ),
    )


def _green_later():
    return IntensityTimeseries(
        points=(
            IntensityPoint(0.0, 500.0),
            IntensityPoint(7200.0, 100.0),
        )
    )


class TestPlanDeferral:
    def test_empty_store_defers_to_green_window(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        plan = plan_deferral(_spec(), store, _green_later())
        assert plan.misses == 2
        assert plan.cached == 0
        assert plan.deferred
        assert plan.run_at_s == 7200.0
        assert plan.savings_fraction > 0.5
        assert "defer to" in plan.describe()

    def test_flat_grid_runs_now(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        plan = plan_deferral(
            _spec(), store, IntensityTimeseries(points=(IntensityPoint(0.0, 380.0),))
        )
        assert plan.misses == 2
        assert not plan.deferred
        assert plan.savings_fraction == pytest.approx(0.0)
        assert "run now" in plan.describe()

    def test_complete_store_has_nothing_to_schedule(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        spec = _spec()
        CampaignRunner(store).run(spec)
        plan = plan_deferral(spec, store, _green_later())
        assert plan.misses == 0
        assert plan.cached == 2
        assert not plan.deferred
        assert plan.site_energy_wh == 0.0
        assert "nothing to schedule" in plan.describe()

    def test_parallel_items_shrink_the_makespan(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        serial = plan_deferral(
            _spec(), store, _green_later(), est_item_duration_s=120.0
        )
        pooled = plan_deferral(
            _spec(),
            store,
            _green_later(),
            est_item_duration_s=120.0,
            parallel_items=2,
        )
        assert pooled.duration_s == serial.duration_s / 2
        # Parallelism changes the makespan, not the energy.
        assert pooled.site_energy_wh == serial.site_energy_wh

    def test_site_pue_scales_energy(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        jsc = plan_deferral(_spec(), store, _green_later(), site="jsc")
        coal = plan_deferral(_spec(), store, _green_later(), site="coal-heavy")
        assert coal.site_energy_wh > jsc.site_energy_wh

    def test_validation(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        with pytest.raises(ConfigError):
            plan_deferral(
                _spec(), store, _green_later(), est_item_duration_s=0.0
            )
        with pytest.raises(ConfigError):
            plan_deferral(_spec(), store, _green_later(), parallel_items=0)
        for horizon_s in (0.0, -5.0):
            with pytest.raises(ConfigError, match="horizon"):
                plan_deferral(_spec(), store, _green_later(), horizon_s=horizon_s)

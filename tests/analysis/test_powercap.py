"""Tests for the power-cap frontier analysis and energy-aware scheduler."""

import io

import pytest

from repro.analysis.carbon import IntensityPoint, IntensityTimeseries, get_site
from repro.analysis.powercap import (
    CapPoint,
    PowercapScenario,
    ServeCapPoint,
    ServeCapScenario,
    best_per_cap,
    cap_ladder,
    energy_aware_schedule,
    frontier_table,
    knee_point,
    optimal_point,
    pick_cap_for_window,
    points_from_rows,
    run_powercap_sweep,
    run_serve_cap_sweep,
)
from repro.errors import ConfigError
from repro.hardware.systems import get_system


class TestScenario:
    def test_cap_axis_derives_from_tdp(self):
        axis = cap_ladder("H100", (1.0, 0.5))
        tdp = get_system("H100").device_tdp_watts
        assert axis[0] == "0"  # 1.0 -> uncapped sentinel
        assert float(axis[1]) == pytest.approx(0.5 * tdp)

    def test_cap_axis_clamps_to_minimum_enforceable(self):
        from repro.power.dvfs import frequency_model_for_node

        node = get_system("H100")
        (value,) = cap_ladder("H100", (0.05,))
        assert float(value) == pytest.approx(
            frequency_model_for_node(node).min_cap_watts
        )

    def test_one_spec_per_system(self):
        scenario = PowercapScenario(systems=("H100", "MI250"))
        specs = scenario.specs()
        assert [s.name for s in specs] == ["powercap-H100", "powercap-MI250"]
        for spec in specs:
            assert len(spec.systems) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            PowercapScenario(systems=())
        with pytest.raises(ConfigError):
            PowercapScenario(cap_fractions=(1.5,))
        with pytest.raises(ConfigError, match="batch sizes"):
            PowercapScenario(global_batch_sizes=(128, 0))
        with pytest.raises(ConfigError, match="duration"):
            PowercapScenario(exit_duration_s=0.0)
        with pytest.raises(ConfigError, match="cap fractions"):
            ServeCapScenario(cap_fractions=(0.0,))
        for field, value, name in (
            ("arrival_rate", 0.0, "arrival rate"),
            ("requests", 0, "requests"),
            ("batch_cap", -1, "batch cap"),
            ("generate_tokens", 0, "generate tokens"),
            ("slo_ttft_ms", -1.0, "TTFT SLO"),
            ("slo_e2e_ms", -1.0, "E2E SLO"),
        ):
            with pytest.raises(ConfigError, match=name):
                ServeCapScenario(**{field: value})


@pytest.fixture(scope="module")
def sweep_points():
    scenario = PowercapScenario(
        systems=("H100", "GH200"),
        global_batch_sizes=(128,),
        cap_fractions=(1.0, 0.85, 0.7, 0.55, 0.45),
        exit_duration_s=10.0,
    )
    return points_from_rows(run_powercap_sweep(scenario))


class TestFrontier:
    def test_optimum_below_tdp_on_two_systems(self, sweep_points):
        """The PR's acceptance check: tokens/Wh peaks under a cap on
        at least two systems."""
        for system in ("H100", "GH200"):
            mine = [p for p in sweep_points if p.system == system]
            optimum = optimal_point(best_per_cap(mine))
            tdp = get_system(system).device_tdp_watts
            assert 0 < optimum.power_cap_w < tdp, system

    def test_frontier_table_marks_picks(self, sweep_points):
        rows = frontier_table(sweep_points)
        assert {r["system"] for r in rows} == {"H100", "GH200"}
        picks = [r["pick"] for r in rows if r["pick"]]
        assert any("optimal" in p for p in picks)
        assert any("knee" in p for p in picks)
        # Uncapped rows are labelled as such.
        assert any(r["power_cap"] == "uncapped" for r in rows)

    def test_frontier_table_rejects_a_sweep_without_usable_points(self):
        with pytest.raises(ConfigError, match="no usable cap points"):
            frontier_table([])

    def test_knee_needs_three_points(self):
        a = CapPoint("X", 0.0, 1, 100.0, 300.0, 10.0)
        b = CapPoint("X", 200.0, 1, 80.0, 200.0, 12.0)
        assert knee_point([a, b]) is None

    def test_best_per_cap_picks_most_efficient_batch(self):
        worse = CapPoint("X", 200.0, 64, 90.0, 200.0, 11.0)
        better = CapPoint("X", 200.0, 128, 80.0, 200.0, 12.0)
        assert best_per_cap([worse, better]) == [better]

    def test_optimal_point_rejects_empty(self):
        with pytest.raises(ConfigError):
            optimal_point([])


def _serve_points():
    return [
        ServeCapPoint("H100", 0.0, 1000.0, 0.99, 0.010),
        ServeCapPoint("H100", 250.0, 900.0, 0.97, 0.007),
        ServeCapPoint("H100", 180.0, 700.0, 0.92, 0.005),
        ServeCapPoint("H100", 150.0, 500.0, 0.70, 0.004),  # misses SLO
    ]


class TestCapPicker:
    def test_green_window_admits_uncapped(self):
        pick = pick_cap_for_window(
            _serve_points(),
            50.0,
            1.1,
            budget_gco2_per_request=1.0,
            attainment_goal=0.9,
        )
        assert pick.power_cap_w == 0.0

    def test_dirty_window_forces_lower_cap(self):
        pick = pick_cap_for_window(
            _serve_points(),
            800.0,
            1.1,
            budget_gco2_per_request=0.005,
            attainment_goal=0.9,
        )
        assert pick.power_cap_w == 180.0

    def test_no_fit_falls_back_to_cleanest_compliant(self):
        pick = pick_cap_for_window(
            _serve_points(),
            5000.0,
            1.1,
            budget_gco2_per_request=1e-9,
            attainment_goal=0.9,
        )
        assert pick.power_cap_w == 180.0  # cleanest point meeting the SLO

    def test_nothing_compliant_maximises_attainment(self):
        pick = pick_cap_for_window(
            _serve_points(),
            100.0,
            1.1,
            budget_gco2_per_request=1.0,
            attainment_goal=0.999,
        )
        assert pick.slo_attainment == max(p.slo_attainment for p in _serve_points())

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            pick_cap_for_window(
                [], 100.0, 1.1, budget_gco2_per_request=1.0, attainment_goal=0.9
            )


class TestEnergyAwareSchedule:
    def test_schedule_saves_energy_and_carbon(self):
        report = energy_aware_schedule(
            _serve_points(), IntensityTimeseries.diurnal(), site="jsc"
        )
        assert report.mean_wh_per_request < report.baseline_wh_per_request
        assert report.mean_gco2_per_request < report.baseline_gco2_per_request
        # Windows tile the horizon without gaps.
        assert report.windows[0].start_s == 0.0
        for prev, cur in zip(report.windows, report.windows[1:]):
            assert prev.end_s == cur.start_s

    def test_varying_grid_varies_the_cap(self):
        report = energy_aware_schedule(
            _serve_points(), IntensityTimeseries.diurnal(), site="jsc"
        )
        caps = {w.cap.power_cap_w for w in report.windows}
        assert len(caps) > 1

    def test_flat_grid_single_cap(self):
        report = energy_aware_schedule(
            _serve_points(),
            IntensityTimeseries(points=(IntensityPoint(0.0, 380.0),)),
            site="jsc",
        )
        assert len({w.cap.power_cap_w for w in report.windows}) == 1

    def test_describe_reports_savings(self):
        report = energy_aware_schedule(
            _serve_points(), IntensityTimeseries.diurnal(), site="jsc"
        )
        text = report.describe()
        assert "Wh/req" in text
        assert "gCO2/req" in text
        assert "saved" in text

    def test_site_profile_accepted_directly(self):
        report = energy_aware_schedule(
            _serve_points(),
            IntensityTimeseries(points=(IntensityPoint(0.0, 100.0),)),
            site=get_site("hydro"),
        )
        assert report.site.name == "hydro"

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"attainment_goal": 0.0}, "attainment goal"),
            ({"attainment_goal": 1.5}, "attainment goal"),
            ({"budget_gco2_per_request": -1.0}, "budget"),
            ({"horizon_s": 0.0}, "horizon"),
        ],
    )
    def test_rejects_out_of_range_options(self, kwargs, name):
        with pytest.raises(ConfigError, match=name):
            energy_aware_schedule(
                _serve_points(), IntensityTimeseries.diurnal(), **kwargs
            )


class TestServeSweep:
    def test_end_to_end_serve_cap_sweep(self):
        points = run_serve_cap_sweep(
            ServeCapScenario(
                cap_fractions=(1.0, 0.6), requests=16, arrival_rate=8.0
            )
        )
        assert len(points) == 2
        capped = min(points, key=lambda p: p.wh_per_request)
        uncapped = max(points, key=lambda p: p.wh_per_request)
        assert capped.power_cap_w > 0
        assert uncapped.power_cap_w == 0.0


class TestPowercapCLI:
    def test_frontier_command(self):
        from repro.core.cli import run as cli_run

        out = io.StringIO()
        code = cli_run(
            [
                "powercap",
                "frontier",
                "--system",
                "H100",
                "--gbs",
                "128",
                "--cap-fraction",
                "1.0",
                "--cap-fraction",
                "0.7",
                "--cap-fraction",
                "0.45",
                "--duration",
                "10",
            ],
            stdout=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "uncapped" in text
        assert "optimum below TDP on: H100" in text

    def test_schedule_command(self):
        from repro.core.cli import run as cli_run

        out = io.StringIO()
        code = cli_run(
            ["powercap", "schedule", "--requests", "16"], stdout=out
        )
        assert code == 0
        assert "energy-aware cap schedule" in out.getvalue()

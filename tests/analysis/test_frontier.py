"""Pareto frontier extraction and the SLO recommender."""

from __future__ import annotations

from types import SimpleNamespace

from repro.analysis.frontier import (
    FrontierPoint,
    frontier_rows,
    pareto_frontier,
    points_from_rows,
    recommend,
)


def point(attainment, energy, replicas=1, source="", **parameters):
    return FrontierPoint(
        slo_attainment=attainment,
        energy_per_request_wh=energy,
        replicas=replicas,
        parameters=parameters,
        source=source,
    )


def row(status="completed", key="k", parameters=None, **outputs):
    defaults = {
        "slo_attainment": 0.99,
        "energy_per_request_wh": 0.5,
        "completed_requests": 10,
    }
    defaults.update(outputs)
    return SimpleNamespace(
        status=status, key=key, parameters=parameters or {}, outputs=defaults
    )


class TestFromRow:
    def test_complete_row_maps_fields(self):
        p = FrontierPoint.from_row(
            row(parameters={"system": "GH200", "batch_cap": "8"})
        )
        assert (p.slo_attainment, p.energy_per_request_wh) == (0.99, 0.5)
        assert p.replicas == 1 and p.source == "k"
        assert "system=GH200" in p.label() and "batch_cap=8" in p.label()

    def test_missing_metrics_is_none(self):
        assert FrontierPoint.from_row(row(slo_attainment=None)) is None
        assert FrontierPoint.from_row(row(energy_per_request_wh="oom")) is None

    def test_zero_completions_is_none(self):
        assert FrontierPoint.from_row(row(completed_requests=0)) is None

    def test_replicas_from_cluster_output(self):
        assert FrontierPoint.from_row(row(cluster_replicas_max=4)).replicas == 4

    def test_replicas_from_parameters(self):
        p = FrontierPoint.from_row(row(parameters={"replicas": "3"}))
        assert p.replicas == 3

    def test_unparseable_replicas_defaults_to_one(self):
        p = FrontierPoint.from_row(row(parameters={"replicas": "many"}))
        assert p.replicas == 1

    def test_label_without_parameters_falls_back_to_source(self):
        assert point(1.0, 1.0, source="abcdef123456789").label() == "abcdef123456"
        assert point(1.0, 1.0).label() == "config"


class TestParetoFrontier:
    def test_dominated_points_removed(self):
        a = point(1.0, 2.0, source="a")
        b = point(0.9, 1.0, source="b")
        dominated = point(0.9, 3.0, source="c")
        assert pareto_frontier([dominated, b, a]) == [a, b]

    def test_sorted_by_descending_attainment(self):
        pts = [point(0.5, 0.1, source="lo"), point(1.0, 1.0, source="hi")]
        assert [p.source for p in pareto_frontier(pts)] == ["hi", "lo"]

    def test_duplicate_positions_all_survive(self):
        twins = [point(0.9, 1.0, source="x"), point(0.9, 1.0, source="y")]
        assert len(pareto_frontier(twins + [point(0.8, 2.0)])) == 2

    def test_empty(self):
        assert pareto_frontier([]) == []

    def test_rows_shape(self):
        rows = frontier_rows([point(0.987654, 0.123456789, system="A100")])
        assert rows == [
            {
                "config": "system=A100",
                "slo_attainment": 0.9877,
                "energy_per_request_wh": 0.123457,
                "replicas": 1,
            }
        ]


class TestRecommend:
    def test_no_attaining_config_is_honest(self):
        rec = recommend([point(0.5, 1.0)], attainment_goal=0.99)
        assert rec.min_energy is None and rec.min_replicas is None
        assert rec.candidates == 0
        assert "no evaluated configuration" in rec.describe()

    def test_min_energy_and_min_replicas_differ(self):
        cheap_big = point(0.99, 1.0, replicas=4, source="cheap")
        dear_small = point(0.995, 3.0, replicas=1, source="small")
        rec = recommend([cheap_big, dear_small, point(0.5, 0.1)], 0.99)
        assert rec.min_energy is cheap_big
        assert rec.min_replicas is dear_small
        assert rec.candidates == 2
        assert "min energy" in rec.describe()
        assert "min replicas" in rec.describe()

    def test_deterministic_tie_breaks_on_source(self):
        a = point(0.99, 1.0, source="aaa")
        b = point(0.99, 1.0, source="bbb")
        rec = recommend([b, a], 0.99)
        assert rec.min_energy is a and rec.min_replicas is a


class TestPointsFromRows:
    def test_only_completed_usable_rows(self):
        rows = [
            row(key="good"),
            row(status="pruned", key="pruned"),
            row(status="failed", key="failed"),
            row(key="empty", completed_requests=0),
        ]
        points = points_from_rows(rows)
        assert [p.source for p in points] == ["good"]

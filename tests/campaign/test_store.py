"""Result store round-trips, persistence, and the query layer."""

from __future__ import annotations

import logging

import pytest

from repro.campaign.store import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    CampaignRow,
    JsonlStore,
    SqliteStore,
    open_store,
)
from repro.errors import ConfigError
from repro.obs.log import get_logger

BACKENDS = {
    "jsonl": "store.jsonl",
    "sqlite": "store.sqlite",
}


@pytest.fixture(params=sorted(BACKENDS))
def store(request, tmp_path):
    return open_store(tmp_path / BACKENDS[request.param])


def _row(key: str = "k1", **kwargs) -> CampaignRow:
    defaults = dict(
        key=key,
        campaign="camp",
        step="train",
        index=0,
        parameters={"system": "A100", "gbs": "256"},
        status=STATUS_COMPLETED,
        outputs={"tokens_per_s": 1234.5, "note": "ok"},
        stdout="iteration 1\n",
        attempts=1,
    )
    defaults.update(kwargs)
    return CampaignRow(**defaults)


class TestBackends:
    def test_open_store_picks_backend(self, tmp_path):
        assert isinstance(open_store(tmp_path / "a.jsonl"), JsonlStore)
        assert isinstance(open_store(tmp_path / "a.sqlite"), SqliteStore)
        assert isinstance(open_store(tmp_path / "a.db"), SqliteStore)
        assert isinstance(open_store(tmp_path / "noext"), JsonlStore)

    def test_round_trip_exact(self, store):
        row = _row()
        store.put(row)
        assert store.get("k1") == row
        assert store.get("k1").canonical() == row.canonical()

    def test_get_missing(self, store):
        assert store.get("nope") is None

    def test_supersede_keeps_latest(self, store):
        store.put(_row(status=STATUS_FAILED, error="ValueError: kaboom", outputs={}))
        store.put(_row(attempts=2))
        assert len(store) == 1
        assert store.get("k1").completed
        assert store.get("k1").attempts == 2

    def test_reopen_persists(self, store):
        store.put(_row("k1"))
        store.put(_row("k2", index=1))
        reopened = open_store(store.path)
        assert [r.key for r in reopened.rows()] == ["k1", "k2"]
        assert reopened.get("k2") == _row("k2", index=1)

    def test_failed_row_round_trip(self, store):
        row = _row(status=STATUS_FAILED, error="ValueError: kaboom", outputs={})
        store.put(row)
        loaded = store.get("k1")
        assert not loaded.completed
        assert loaded.error == "ValueError: kaboom"


class TestQueryLayer:
    @pytest.fixture
    def filled(self, store):
        store.put(_row("k1", parameters={"system": "A100", "gbs": "256"}))
        store.put(
            _row(
                "k2",
                index=1,
                parameters={"system": "H100", "gbs": "256"},
                outputs={"tokens_per_s": 2000.0},
            )
        )
        store.put(
            _row(
                "k3",
                index=2,
                step="analyse",
                parameters={"system": "A100", "gbs": "512"},
                status=STATUS_FAILED,
                outputs={},
                error="boom",
            )
        )
        return store

    def test_query_by_step_status_params(self, filled):
        assert len(filled.query(step="train")) == 2
        assert [r.key for r in filled.query(status=STATUS_FAILED)] == ["k3"]
        assert [r.key for r in filled.query(where={"system": "A100"})] == ["k1", "k3"]
        assert filled.query(campaign="other") == []

    def test_aggregate(self, filled):
        by_system = filled.aggregate("tokens_per_s", by="system")
        assert by_system == {"A100": 1234.5, "H100": 2000.0}
        total = filled.aggregate("tokens_per_s", agg="sum")
        assert total[""] == pytest.approx(3234.5)

    def test_aggregate_skips_non_numeric_and_failed(self, filled):
        # "note" is a string output; k3 is failed — neither contributes.
        assert filled.aggregate("note") == {}
        assert "512" not in filled.aggregate("tokens_per_s", by="gbs")

    def test_aggregate_unknown_reducer(self, filled):
        with pytest.raises(ConfigError, match="unknown aggregation"):
            filled.aggregate("tokens_per_s", agg="median")

    def test_to_csv(self, filled, tmp_path):
        out = filled.to_csv(tmp_path / "out.csv", status=STATUS_COMPLETED)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("step,status,system,gbs")
        assert len(lines) == 3

    def test_to_csv_explicit_columns(self, filled, tmp_path):
        out = filled.to_csv(
            tmp_path / "out.csv", columns=("system", "tokens_per_s"), step="train"
        )
        assert out.read_text().splitlines() == [
            "system,tokens_per_s",
            "A100,1234.5",
            "H100,2000.0",
        ]


class TestBatchPrimitives:
    def test_put_many_then_get_many(self, store):
        rows = [_row(f"k{i}", index=i) for i in range(5)]
        store.put_many(rows)
        found = store.get_many([f"k{i}" for i in range(5)] + ["absent"])
        assert set(found) == {f"k{i}" for i in range(5)}
        assert found["k3"] == rows[3]

    def test_put_many_empty_is_noop(self, store):
        store.put_many([])
        assert len(store) == 0

    def test_get_many_empty(self, store):
        assert store.get_many([]) == {}

    def test_put_many_supersedes_within_batch(self, store):
        first = _row("k1", attempts=1)
        second = _row("k1", attempts=2)
        store.put_many([first, second])
        assert len(store) == 1
        assert store.get("k1").attempts == 2

    def test_count_filters(self, store):
        store.put_many(
            [
                _row("k1"),
                _row("k2", index=1, step="analyse"),
                _row("k3", index=2, status=STATUS_FAILED, outputs={}),
            ]
        )
        assert store.count() == len(store) == 3
        assert store.count(step="train") == 2
        assert store.count(status=STATUS_FAILED) == 1
        assert store.count(campaign="other") == 0


class TestLifecycle:
    def test_context_manager_closes(self, tmp_path):
        with open_store(tmp_path / "ctx.sqlite") as store:
            store.put(_row())
        # The connection is gone: further statements must fail.
        import sqlite3

        with pytest.raises(sqlite3.ProgrammingError):
            store.rows()

    def test_jsonl_close_flushes_appends(self, tmp_path):
        store = JsonlStore(tmp_path / "flush.jsonl")
        store.put_many([_row("k1"), _row("k2", index=1)])
        store.close()
        assert len(JsonlStore(tmp_path / "flush.jsonl")) == 2

    def test_close_is_idempotent(self, store):
        store.put(_row())
        store.close()
        store.close()


class TestAggregateEmptyGuards:
    def test_empty_store_aggregates_to_empty(self, store):
        assert store.aggregate("tokens_per_s") == {}
        assert store.aggregate("tokens_per_s", by="system", agg="mean") == {}

    def test_no_numeric_values_never_divides_by_zero(self, store):
        store.put(_row(outputs={"note": "strings only"}))
        assert store.aggregate("tokens_per_s") == {}
        assert store.aggregate("note") == {}


def test_corrupt_jsonl_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"key": "k1"}\nnot json\n')
    with pytest.raises(ConfigError, match="corrupt campaign store"):
        JsonlStore(path)


class TestTornJsonl:
    """A crash mid-append leaves the last JSONL line unterminated."""

    @pytest.fixture
    def warnings(self):
        records: list[logging.LogRecord] = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logger = get_logger("repro.campaign.store")
        level = logger.level
        logger.setLevel(logging.WARNING)
        logger.addHandler(handler)
        yield records
        logger.removeHandler(handler)
        logger.setLevel(level)

    @pytest.fixture
    def torn(self, tmp_path):
        """A store file of two rows and the first half of a third."""
        path = tmp_path / "torn.jsonl"
        with JsonlStore(path) as store:
            store.put_many([_row("k1"), _row("k2"), _row("k3")])
        text = path.read_text()
        last = text.rstrip("\n").rsplit("\n", 1)[1]
        path.write_text(text[: len(text) - len(last) // 2 - 1])
        return path

    def test_loads_complete_rows_and_warns(self, torn, warnings):
        before = torn.read_bytes()
        store = JsonlStore(torn)
        assert [row.key for row in store.rows()] == ["k1", "k2"]
        assert len(warnings) == 1
        assert "unterminated last line" in warnings[0].getMessage()
        store.close()
        assert torn.read_bytes() == before  # reading never modifies the file

    def test_first_append_cuts_the_torn_line(self, torn, warnings):
        with JsonlStore(torn) as store:
            store.put_many([_row("k3"), _row("k4")])
        lines = torn.read_text().split("\n")
        assert lines[-1] == "" and len(lines) == 5
        warnings.clear()
        reloaded = JsonlStore(torn)
        assert [row.key for row in reloaded.rows()] == ["k1", "k2", "k3", "k4"]
        assert reloaded.get("k3") == _row("k3")
        assert warnings == []

    def test_unterminated_complete_row_is_not_committed(self, tmp_path, warnings):
        path = tmp_path / "no-newline.jsonl"
        with JsonlStore(path) as store:
            store.put_many([_row("k1"), _row("k2")])
        path.write_text(path.read_text().rstrip("\n"))
        assert [row.key for row in JsonlStore(path).rows()] == ["k1"]
        assert len(warnings) == 1

    def test_corrupt_interior_line_still_raises(self, torn):
        text = torn.read_text()
        torn.write_text("not json\n" + text)
        with pytest.raises(ConfigError, match="corrupt campaign store"):
            JsonlStore(torn)


class TestSqliteLookupPaths:
    """All three ``get_many`` strategies return identical results."""

    def _seed(self, tmp_path, rows=100):
        store = SqliteStore(tmp_path / "paths.sqlite")
        store.put_many([_row(f"k{i}", index=i) for i in range(rows)])
        return store

    def test_small_keyset_takes_per_row_probes(self, tmp_path):
        store = self._seed(tmp_path)
        keys = [f"k{i}" for i in range(store._SMALL_LOOKUP_CUTOFF)] + ["absent"]
        found = store.get_many(keys)
        assert set(found) == {k for k in keys if k != "absent"}
        assert all(found[k] == store.get(k) for k in found)

    def test_medium_keyset_takes_chunked_in_selects(self, tmp_path):
        store = self._seed(tmp_path, rows=200)
        keys = [f"k{i}" for i in range(0, 200, 4)]  # 50 keys, < half the table
        assert store._SMALL_LOOKUP_CUTOFF < len(keys) < store.count() / 2
        found = store.get_many(keys)
        assert set(found) == set(keys)

    def test_large_keyset_takes_full_scan(self, tmp_path):
        store = self._seed(tmp_path)
        keys = [f"k{i}" for i in range(100)]
        found = store.get_many(keys)
        assert set(found) == set(keys)
        assert found["k99"] == store.get("k99")

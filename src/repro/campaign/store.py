"""Content-addressed campaign result stores.

Every executed workpackage becomes one durable :class:`CampaignRow`
keyed by its content hash (:mod:`repro.campaign.hashing`).  Because the
simulation is bit-deterministic, the store doubles as an exact cache:
re-running a campaign looks every planned key up first and only
executes the misses, and ``campaign continue`` resumes an interrupted
run from whatever rows made it to disk.

Two on-disk backends behind one interface:

* :class:`JsonlStore` — append-only JSON lines, the default; later
  lines for the same key supersede earlier ones, so retries are plain
  appends, and a line torn by a crash mid-append is dropped on load
  and cut off before the next append,
* :class:`SqliteStore` — a single-table SQLite database (WAL journal,
  a ``(campaign, step, status)`` index) for campaigns large enough
  that full-file scans hurt.

Both backends take batched writes (``put_many``: one transaction /
one flush per batch) and bulk lookups (``get_many``), which is what
lets :class:`~repro.campaign.runner.CampaignRunner` plan and flush
thousands of workpackages without paying a per-row fsync.
:func:`open_store` picks the backend from the path suffix.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.campaign.hashing import canonical_json
from repro.errors import ConfigError
from repro.obs.log import get_logger

logger = get_logger(__name__)

#: Row lifecycle states.  ``pruned`` rows are written by the search
#: driver for configurations eliminated on screening evidence: their
#: outputs carry the screening provenance (rung, prefix length,
#: dominating config) and are **never** exact results — a normal
#: campaign run treats them as misses and re-executes them in full.
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"
STATUS_PRUNED = "pruned"

_REDUCERS = {
    "mean": lambda vs: sum(vs) / len(vs),
    "min": min,
    "max": max,
    "sum": sum,
}


def _reduce(agg: str, values: list[float]) -> float | None:
    """Apply a reducer, or None for an empty group (never divide by 0)."""
    if not values:
        return None
    return _REDUCERS[agg](values)


@dataclass(frozen=True)
class CampaignRow:
    """One workpackage's durable result.

    ``degraded`` marks a row that completed while injected faults fired
    (a chaos campaign's "finished under duress" outcome); ``faults``
    carries the provenance of every fired fault — kind, label, time,
    fire count — whether the row completed or failed.
    """

    key: str
    campaign: str
    step: str
    index: int
    parameters: dict[str, str] = field(default_factory=dict)
    status: str = STATUS_COMPLETED
    outputs: dict[str, object] = field(default_factory=dict)
    stdout: str = ""
    error: str | None = None
    attempts: int = 1
    degraded: bool = False
    # default_factory (not ``()``) keeps the class free of a ``faults``
    # attribute, so lazy rows reach __getattr__ below.
    faults: tuple = field(default_factory=tuple)

    def __getattr__(self, name: str):
        # Store-loaded rows may arrive with their three JSON fields
        # still serialized (``_blob``, see SqliteStore._from_record):
        # resuming a large campaign touches only ``status``/``degraded``
        # on cache hits, so deserializing parameters/outputs/faults per
        # row would dominate the resume.  First access hydrates all
        # three; rows built via __init__ never take this path.
        if name in ("parameters", "outputs", "faults"):
            blob = self.__dict__.pop("_blob", None)
            if blob is not None:
                parameters, outputs, faults = json.loads(blob)
                d = self.__dict__  # frozen dataclass: bypass __setattr__
                d["parameters"] = parameters
                d["outputs"] = outputs
                d["faults"] = tuple(faults)
                return d[name]
        raise AttributeError(name)

    @property
    def completed(self) -> bool:
        """Whether the workpackage finished successfully."""
        return self.status == STATUS_COMPLETED

    def to_dict(self) -> dict:
        """Plain-mapping form (JSON-serialisable)."""
        return {
            "key": self.key,
            "campaign": self.campaign,
            "step": self.step,
            "index": self.index,
            "parameters": dict(self.parameters),
            "status": self.status,
            "outputs": dict(self.outputs),
            "stdout": self.stdout,
            "error": self.error,
            "attempts": self.attempts,
            "degraded": self.degraded,
            "faults": [dict(f) for f in self.faults],
        }

    @classmethod
    def from_result(cls, key: str, campaign: str, item, result) -> "CampaignRow":
        """The row of an executed work item: failed if it has an error."""
        return cls(
            key=key,
            campaign=campaign,
            step=item.step.name,
            index=item.index,
            parameters=dict(item.parameters),
            status=STATUS_FAILED if result.error else STATUS_COMPLETED,
            outputs=dict(result.outputs),
            stdout=result.stdout,
            error=result.error,
            attempts=result.attempts,
            degraded=result.degraded,
            faults=tuple(result.faults),
        )

    @classmethod
    def from_dict(cls, raw: Mapping) -> "CampaignRow":
        """Rebuild a row from its mapping form."""
        return cls(
            key=str(raw["key"]),
            campaign=str(raw.get("campaign", "")),
            step=str(raw["step"]),
            index=int(raw.get("index", 0)),
            parameters=dict(raw.get("parameters", {})),
            status=str(raw.get("status", STATUS_COMPLETED)),
            outputs=dict(raw.get("outputs", {})),
            stdout=str(raw.get("stdout", "")),
            error=raw.get("error"),
            attempts=int(raw.get("attempts", 1)),
            degraded=bool(raw.get("degraded", False)),
            faults=tuple(dict(f) for f in raw.get("faults", ())),
        )

    def canonical(self) -> str:
        """Canonical byte representation (for exactness comparisons)."""
        return canonical_json(self.to_dict())

    def flat(self) -> dict:
        """Flattened view for tables/CSV: metadata + parameters + outputs.

        ``degraded`` appears only when set, keeping clean-campaign CSV
        headers unchanged.
        """
        flat = {
            "step": self.step,
            "status": self.status,
            **self.parameters,
            **self.outputs,
        }
        if self.degraded:
            flat["degraded"] = True
        return flat


class ResultStore:
    """Interface + shared query/aggregation layer of the backends."""

    path: Path

    # -- backend primitives -------------------------------------------------

    def put(self, row: CampaignRow) -> None:
        """Insert or supersede one row."""
        self.put_many([row])

    def put_many(self, rows: Iterable[CampaignRow]) -> None:
        """Insert or supersede a batch of rows in one durable write.

        Equivalent to ``put`` in a loop — same supersede semantics, same
        on-disk representation — but pays the backend's per-write cost
        (fsync, file open) once per batch instead of once per row.
        """
        raise NotImplementedError

    def get(self, key: str) -> CampaignRow | None:
        """Latest row for a key, or None."""
        return self.get_many([key]).get(key)

    def get_many(self, keys: Iterable[str]) -> dict[str, CampaignRow]:
        """Bulk lookup: mapping of the given keys that exist in the store."""
        raise NotImplementedError

    def rows(self) -> list[CampaignRow]:
        """All current rows (latest per key), in insertion order."""
        raise NotImplementedError

    def count(
        self,
        *,
        campaign: str | None = None,
        step: str | None = None,
        status: str | None = None,
    ) -> int:
        """Row count under the filters, without materializing rows."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self.count()

    def close(self) -> None:
        """Release backend resources (file handles, DB connections)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- query / aggregation ------------------------------------------------

    def query(
        self,
        *,
        campaign: str | None = None,
        step: str | None = None,
        status: str | None = None,
        where: Mapping[str, str] | None = None,
    ) -> list[CampaignRow]:
        """Filter rows by campaign, step, status, and parameter values."""
        out = []
        for row in self.rows():
            if campaign is not None and row.campaign != campaign:
                continue
            if step is not None and row.step != step:
                continue
            if status is not None and row.status != status:
                continue
            if where and any(
                row.parameters.get(k) != str(v) for k, v in where.items()
            ):
                continue
            out.append(row)
        return out

    def aggregate(
        self,
        metric: str,
        *,
        by: str | None = None,
        agg: str = "mean",
        **query_kwargs,
    ) -> dict[str, float]:
        """Aggregate a numeric output over completed rows.

        ``by`` groups by a parameter (or output) name; ``agg`` is one of
        mean/min/max/sum.  Rows lacking the metric are skipped.
        """
        if agg not in _REDUCERS:
            raise ConfigError(
                f"unknown aggregation {agg!r}; known: {sorted(_REDUCERS)}"
            )
        groups: dict[str, list[float]] = {}
        for row in self.query(status=STATUS_COMPLETED, **query_kwargs):
            value = row.outputs.get(metric)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            group = str(row.parameters.get(by, row.outputs.get(by, ""))) if by else ""
            groups.setdefault(group, []).append(float(value))
        out: dict[str, float] = {}
        for group, values in sorted(groups.items()):
            reduced = _reduce(agg, values)
            if reduced is not None:
                out[group] = reduced
        return out

    def to_csv(
        self,
        path: str | Path,
        *,
        columns: Iterable[str] | None = None,
        **query_kwargs,
    ) -> Path:
        """Export (filtered) rows as CSV; returns the written path.

        Without ``columns``, the header is the union of flattened field
        names in first-seen order.
        """
        import csv

        rows = [row.flat() for row in self.query(**query_kwargs)]
        if columns is None:
            seen: dict[str, None] = {}
            for flat in rows:
                for name in flat:
                    seen.setdefault(name)
            columns = list(seen)
        else:
            columns = list(columns)
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
            writer.writeheader()
            for flat in rows:
                writer.writerow({name: flat.get(name, "") for name in columns})
        return target


class JsonlStore(ResultStore):
    """Append-only JSON-lines store (the default backend).

    Loading streams the file line by line (no whole-file string in
    memory); appends go through one lazily opened buffered handle that
    is flushed once per ``put``/``put_many`` batch, so the on-disk bytes
    after a batch are identical to per-row appends.

    A row is committed when its newline is written.  A crash mid-append
    leaves the last line unterminated: loading skips it with a warning
    (``campaign continue`` then re-executes that workpackage), and the
    first append cuts it off so the next row starts on its own line.
    Opening a store never modifies the file.  Any terminated line that
    does not parse raises :class:`~repro.errors.ConfigError`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._rows: dict[str, CampaignRow] = {}
        self._appender = None
        self._torn_bytes = 0
        if self.path.exists():
            with self.path.open() as fh:
                for line in fh:
                    if not line.endswith("\n"):
                        self._torn_bytes = len(line.encode())
                        logger.warning(
                            "campaign store %s: skipped an unterminated last "
                            "line (%d bytes) left by an interrupted append",
                            self.path, self._torn_bytes,
                        )
                        break
                    if not line.strip():
                        continue
                    try:
                        row = CampaignRow.from_dict(json.loads(line))
                    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                        raise ConfigError(
                            f"corrupt campaign store {self.path}: {exc!r}"
                        ) from None
                    self._rows.pop(row.key, None)  # supersede keeps append order
                    self._rows[row.key] = row

    def put_many(self, rows: Iterable[CampaignRow]) -> None:
        """Append a batch; existing keys are superseded; one flush."""
        rows = list(rows)
        if not rows:
            return
        if self._appender is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._torn_bytes:
                with self.path.open("r+b") as fh:
                    fh.truncate(fh.seek(0, os.SEEK_END) - self._torn_bytes)
                self._torn_bytes = 0
            self._appender = self.path.open("a")
        for row in rows:
            self._appender.write(json.dumps(row.to_dict(), default=str) + "\n")
            self._rows.pop(row.key, None)
            self._rows[row.key] = row
        self._appender.flush()

    def get(self, key: str) -> CampaignRow | None:
        """Latest row for a key, or None."""
        return self._rows.get(key)

    def get_many(self, keys: Iterable[str]) -> dict[str, CampaignRow]:
        """Bulk lookup from the in-memory index."""
        rows = self._rows
        return {key: rows[key] for key in keys if key in rows}

    def rows(self) -> list[CampaignRow]:
        """All current rows in append order."""
        return list(self._rows.values())

    def count(
        self,
        *,
        campaign: str | None = None,
        step: str | None = None,
        status: str | None = None,
    ) -> int:
        """Row count; the unfiltered case is the dict size, O(1)."""
        if campaign is None and step is None and status is None:
            return len(self._rows)
        return len(self.query(campaign=campaign, step=step, status=status))

    def close(self) -> None:
        """Flush and close the append handle (if one was opened)."""
        if self._appender is not None:
            self._appender.close()
            self._appender = None


class SqliteStore(ResultStore):
    """Single-table SQLite store for large campaigns."""

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS campaign_rows (
            rowid_seq  INTEGER PRIMARY KEY AUTOINCREMENT,
            key        TEXT UNIQUE NOT NULL,
            campaign   TEXT NOT NULL,
            step       TEXT NOT NULL,
            idx        INTEGER NOT NULL,
            parameters TEXT NOT NULL,
            status     TEXT NOT NULL,
            outputs    TEXT NOT NULL,
            stdout     TEXT NOT NULL,
            error      TEXT,
            attempts   INTEGER NOT NULL,
            degraded   INTEGER NOT NULL DEFAULT 0,
            faults     TEXT NOT NULL DEFAULT '[]'
        )
    """

    #: SQLite's historical bound on statement variables is 999; stay
    #: comfortably below it when chunking ``IN (...)`` lookups.
    _IN_CHUNK = 500

    #: At or below this many keys, ``get_many`` probes the key index
    #: per row instead of weighing a table scan: the ``COUNT(*)``
    #: round-trip the scan heuristic needs costs more than the whole
    #: lookup at this scale, which showed up as a sub-1x "speedup" on
    #: tiny campaigns.
    _SMALL_LOOKUP_CUTOFF = 16

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(self.path)
        # WAL keeps readers unblocked during batch commits and makes the
        # commit itself one sequential log append instead of a page-level
        # rewrite; NORMAL sync is durable-to-the-WAL, which is the same
        # crash contract the append-only JSONL backend offers.
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.execute(self._SCHEMA)
        self._db.execute(
            "CREATE INDEX IF NOT EXISTS idx_campaign_step_status "
            "ON campaign_rows (campaign, step, status)"
        )
        self._migrate()
        self._db.commit()

    def _migrate(self) -> None:
        """Add columns newer code expects to databases older code made."""
        have = {
            record[1]
            for record in self._db.execute("PRAGMA table_info(campaign_rows)")
        }
        for name, decl in (
            ("degraded", "INTEGER NOT NULL DEFAULT 0"),
            ("faults", "TEXT NOT NULL DEFAULT '[]'"),
        ):
            if name not in have:
                self._db.execute(
                    f"ALTER TABLE campaign_rows ADD COLUMN {name} {decl}"
                )

    @staticmethod
    def _to_record(row: CampaignRow) -> tuple:
        return (
            row.key,
            row.campaign,
            row.step,
            row.index,
            json.dumps(row.parameters, default=str),
            row.status,
            json.dumps(row.outputs, default=str),
            row.stdout,
            row.error,
            row.attempts,
            int(row.degraded),
            json.dumps([dict(f) for f in row.faults], default=str),
        )

    def put_many(self, rows: Iterable[CampaignRow]) -> None:
        """Upsert a batch in one transaction (one commit, one fsync).

        ``INSERT OR REPLACE`` is SQLite's native upsert: a conflicting
        key deletes the old row and the replacement takes a fresh
        autoincrement sequence number, so a superseded row moves to the
        end of insertion order — exactly the JSONL append semantics.
        """
        records = [self._to_record(row) for row in rows]
        if not records:
            return
        self._db.executemany(
            "INSERT OR REPLACE INTO campaign_rows "
            "(key, campaign, step, idx, parameters, status, outputs, stdout, "
            " error, attempts, degraded, faults) VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
            records,
        )
        self._db.commit()

    @staticmethod
    def _from_record(record) -> CampaignRow:
        (key, campaign, step, idx, status, stdout,
         error, attempts, degraded, blob) = record
        # The three JSON columns come back SQL-concatenated into one
        # array (see _COLUMNS) and stay serialized until first access
        # (CampaignRow.__getattr__): a campaign resume touches only the
        # scalar fields of its cache hits, so parsing JSON here would
        # be most of the resume's cost.  The row is built through
        # __dict__ because the frozen dataclass __init__ (one
        # object.__setattr__ per field) is several times slower and
        # this runs once per row.
        row = CampaignRow.__new__(CampaignRow)
        row.__dict__.update(
            key=key,
            campaign=campaign,
            step=step,
            index=idx,
            status=status,
            stdout=stdout,
            error=error,
            attempts=attempts,
            degraded=bool(degraded),
            _blob=blob,
        )
        return row

    _COLUMNS = (
        "key, campaign, step, idx, status, stdout, error, attempts, degraded, "
        "'[' || parameters || ',' || outputs || ',' || faults || ']'"
    )

    def get(self, key: str) -> CampaignRow | None:
        """Latest row for a key, or None."""
        record = self._db.execute(
            f"SELECT {self._COLUMNS} FROM campaign_rows WHERE key = ?", (key,)
        ).fetchone()
        return self._from_record(record) if record else None

    def get_many(self, keys: Iterable[str]) -> dict[str, CampaignRow]:
        """Bulk lookup via chunked ``IN (...)`` selects."""
        keys = list(keys)
        if not keys:
            return {}
        out: dict[str, CampaignRow] = {}
        from_record = self._from_record
        if len(keys) <= self._SMALL_LOOKUP_CUTOFF:
            # Tiny keysets: per-row index probes, no COUNT round-trip.
            for key in keys:
                record = self._db.execute(
                    f"SELECT {self._COLUMNS} FROM campaign_rows WHERE key = ?",
                    (key,),
                ).fetchone()
                if record is not None:
                    out[key] = from_record(record)
            return out
        if 2 * len(keys) >= self.count():
            # Most of the table is wanted (the resume/fully-cached-rerun
            # shape): one sequential scan beats len(keys) index probes.
            wanted = set(keys)
            records = self._db.execute(
                f"SELECT {self._COLUMNS} FROM campaign_rows"
            ).fetchall()
            for record in records:
                if record[0] in wanted:
                    out[record[0]] = from_record(record)
            return out
        for start in range(0, len(keys), self._IN_CHUNK):
            chunk = keys[start:start + self._IN_CHUNK]
            placeholders = ",".join("?" * len(chunk))
            records = self._db.execute(
                f"SELECT {self._COLUMNS} FROM campaign_rows "
                f"WHERE key IN ({placeholders})",
                chunk,
            ).fetchall()
            for record in records:
                out[record[0]] = from_record(record)
        return out

    @staticmethod
    def _where(
        campaign: str | None, step: str | None, status: str | None
    ) -> tuple[str, list[str]]:
        clauses, args = [], []
        for column, value in (
            ("campaign", campaign), ("step", step), ("status", status)
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                args.append(value)
        return (" WHERE " + " AND ".join(clauses)) if clauses else "", args

    def query(
        self,
        *,
        campaign: str | None = None,
        step: str | None = None,
        status: str | None = None,
        where: Mapping[str, str] | None = None,
    ) -> list[CampaignRow]:
        """Filter rows; campaign/step/status are pushed down to SQL.

        Parameter filters (``where``) still apply in Python — parameters
        live as a JSON blob — but only over the SQL-narrowed rows.
        """
        sql_where, args = self._where(campaign, step, status)
        records = self._db.execute(
            f"SELECT {self._COLUMNS} FROM campaign_rows{sql_where} "
            "ORDER BY rowid_seq",
            args,
        ).fetchall()
        rows = [self._from_record(r) for r in records]
        if where:
            rows = [
                row
                for row in rows
                if all(row.parameters.get(k) == str(v) for k, v in where.items())
            ]
        return rows

    def count(
        self,
        *,
        campaign: str | None = None,
        step: str | None = None,
        status: str | None = None,
    ) -> int:
        """``COUNT(*)`` pushdown — never deserializes rows."""
        sql_where, args = self._where(campaign, step, status)
        return self._db.execute(
            f"SELECT COUNT(*) FROM campaign_rows{sql_where}", args
        ).fetchone()[0]

    def rows(self) -> list[CampaignRow]:
        """All rows in insertion order."""
        records = self._db.execute(
            f"SELECT {self._COLUMNS} FROM campaign_rows ORDER BY rowid_seq"
        ).fetchall()
        return [self._from_record(r) for r in records]

    def close(self) -> None:
        """Close the database connection."""
        self._db.close()


def open_store(path: str | Path) -> ResultStore:
    """Open (creating if needed) a store; backend chosen by suffix.

    ``.sqlite`` / ``.db`` select SQLite; everything else is JSONL.
    """
    suffix = Path(path).suffix.lower()
    if suffix in (".sqlite", ".db"):
        return SqliteStore(path)
    return JsonlStore(path)

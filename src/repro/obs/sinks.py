"""Trace sinks and the Chrome Trace Event / Perfetto exporter.

A sink receives every finalised trace record (a plain dict, see
:mod:`repro.obs.trace`) and persists it somewhere:

* :class:`InMemorySink` — keeps records in a list (tests, summaries),
* :class:`JsonlSink` — one JSON object per line, written incrementally
  (the durable event log; crash-safe up to the last flushed record),
* :class:`PerfettoSink` — buffers records and writes a Chrome Trace
  Event JSON file on ``close()``; the output opens directly in
  `ui.perfetto.dev <https://ui.perfetto.dev>`_ or ``chrome://tracing``.

All JSON is serialised with sorted keys and no whitespace variance, so
two identical seeded runs produce **byte-identical** files — the same
guarantee the campaign layer makes for result hashing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError

#: Process id used for every emitted trace event (one simulated process).
TRACE_PID = 1

def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class InMemorySink:
    """Collects records in :attr:`records` (primarily for tests)."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.closed = False

    def emit(self, record: dict) -> None:
        """Append one record."""
        self.records.append(record)

    def close(self) -> None:
        """Mark the sink closed (records stay readable)."""
        self.closed = True


class JsonlSink:
    """Streams records to a JSONL file, one object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = self.path.open("w", encoding="utf-8")

    def emit(self, record: dict) -> None:
        """Write one record as a JSON line."""
        self._fh.write(_dumps(record) + "\n")

    def close(self) -> None:
        """Flush and close the file."""
        if not self._fh.closed:
            self._fh.close()


class PerfettoSink:
    """Buffers records; writes Trace Event JSON at ``close()``."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        """Buffer one record."""
        self.records.append(record)

    def close(self) -> None:
        """Convert the buffered records and write the trace file."""
        write_perfetto(self.records, self.path)


def sink_for_path(path: str | Path):
    """The natural sink for a trace output path.

    ``.jsonl`` gets the streaming event log; anything else (``.json``
    by convention) gets the Perfetto exporter.
    """
    p = Path(path)
    if p.suffix == ".jsonl":
        return JsonlSink(p)
    return PerfettoSink(p)


# -- Chrome Trace Event conversion ------------------------------------------


def records_to_trace_events(records: list[dict]) -> dict:
    """Convert trace records to a Chrome Trace Event JSON object.

    Spans become complete (``"ph": "X"``) events, instants become
    thread-scoped instant (``"ph": "i"``) events, counters become
    counter (``"ph": "C"``) events on their own named track.  Tracks
    map to thread ids in first-seen order, with ``M`` metadata events
    naming them; timestamps convert from seconds to the format's
    microseconds.
    """
    tids: dict[str, int] = {}

    def tid_for(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
        return tids[track]

    events: list[dict] = []
    for record in records:
        kind = record.get("type")
        if kind == "span":
            events.append(
                {
                    "name": record["name"],
                    "cat": "span",
                    "ph": "X",
                    "ts": record["t0"] * 1e6,
                    "dur": (record["t1"] - record["t0"]) * 1e6,
                    "pid": TRACE_PID,
                    "tid": tid_for(record.get("track", "main")),
                    "args": record.get("attrs", {}),
                }
            )
        elif kind == "instant":
            events.append(
                {
                    "name": record["name"],
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": record["t"] * 1e6,
                    "pid": TRACE_PID,
                    "tid": tid_for(record.get("track", "main")),
                    "args": record.get("attrs", {}),
                }
            )
        elif kind == "counter":
            events.append(
                {
                    "name": record["name"],
                    "cat": "counter",
                    "ph": "C",
                    "ts": record["t"] * 1e6,
                    "pid": TRACE_PID,
                    "args": {"value": record["value"]},
                }
            )
        else:
            raise ReproError(f"unknown trace record type {kind!r}")
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "args": {"name": "caraml-sim"},
        }
    ]
    for track, tid in tids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs"},
    }


def write_perfetto(records: list[dict], path: str | Path) -> Path:
    """Write records as a Perfetto-loadable Trace Event JSON file."""
    p = Path(path)
    p.write_text(_dumps(records_to_trace_events(records)) + "\n", encoding="utf-8")
    return p


def load_jsonl(path: str | Path) -> list[dict]:
    """Read a JSONL event log back into trace records."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def validate_trace_events(doc: object) -> list[str]:
    """Check a Trace Event JSON object against the format's schema.

    Returns a list of human-readable problems (empty when the document
    is valid).  Covers the subset of the Chrome Trace Event format this
    exporter emits: the ``traceEvents`` array, required per-phase
    fields, and numeric, non-negative timestamps/durations.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["trace must be a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["trace lacks a 'traceEvents' array"]
    required_by_phase = {
        "X": ("name", "ts", "dur", "pid", "tid"),
        "i": ("name", "ts", "pid", "tid", "s"),
        "C": ("name", "ts", "pid"),
        "M": ("name", "pid"),
    }
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event #{i} is not an object")
            continue
        phase = event.get("ph")
        if phase not in required_by_phase:
            problems.append(f"event #{i} has unsupported phase {phase!r}")
            continue
        for field in required_by_phase[phase]:
            if field not in event:
                problems.append(f"event #{i} (ph={phase}) lacks {field!r}")
        for field in ("ts", "dur"):
            if field in event:
                value = event[field]
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"event #{i} field {field!r} must be a non-negative number"
                    )
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"counter event #{i} needs non-empty 'args'")
    return problems

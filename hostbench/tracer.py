"""Wall-clock layer tracer for the benchmark's traced run.

The simulator is instrumented from the outside: :class:`Instrumentation`
wraps public entry points of each layer where they are looked up (a
function imported by name into another module is replaced there too),
so no file of the package changes.  Every wrapped call opens a frame;
a frame's *self* time is its duration minus the time its wrapped
children took, and each entry point's self time is charged to one
per-layer metric.  Harness spans charge theirs to ``other``, so layer
self times plus ``other`` sum to the traced wall time exactly.

Coarse entry points record one span each (name, start, end, parent).
Hot entry points (called per step or per request) keep only per-parent
counts and summed times, which keeps the tracing overhead small.
Spans stay in memory and are written out when the run ends.

Pool workers are not instrumented: a forked worker restores the
original functions, so its time shows up in the parent as the time
the parent spends blocked on the pool.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

#: Metric that harness time and uncovered time land in.
OTHER = "other"

#: Prefix of the harness spans that name a workload phase.
PHASE = "phase:"


@dataclass(frozen=True)
class Entry:
    """One public entry point and the layer metric its self time feeds.

    ``hot`` entries keep per-parent aggregates instead of spans.
    ``count`` names a counter bumped once per call, and ``observe``
    (``tracer, args, kwargs, result, error``) derives further counters
    from the call.
    """

    module: str
    qualname: str
    metric: str
    hot: bool = False
    count: str | None = None
    observe: Callable | None = None


class LayerTracer:
    """Frames, spans, per-parent aggregates and counters of one run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_id, self_s]`` per span.
        self.spans: list[list] = []
        #: ``(entry name, parent span id) -> [calls, total_s, self_s]``.
        self.hot: dict[tuple[str, int | None], list] = {}
        #: Self seconds per metric, ``other`` included.
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        #: Sum of the durations of the outermost spans.
        self.wall_s = 0.0
        #: Open frames: ``[start, child_s, span_id]``.
        self.frames: list[list] = []
        self._open_spans: list[int] = []

    def add(self, name: str, value: float = 1) -> None:
        """Bump a counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def open(self, name: str, span: bool) -> list:
        """Start a frame (and a span unless it is a hot entry's frame)."""
        start = perf_counter()
        span_id = None
        if span:
            span_id = len(self.spans)
            parent = self._open_spans[-1] if self._open_spans else None
            self.spans.append([name, start, None, parent, 0.0])
            self._open_spans.append(span_id)
        frame = [start, 0.0, span_id]
        self.frames.append(frame)
        return frame

    def close(self, name: str, metric: str, frame: list) -> None:
        """End a frame; its self time is charged to ``metric``."""
        end = perf_counter()
        self.frames.pop()
        duration = end - frame[0]
        own = duration - frame[1]
        if self.frames:
            self.frames[-1][1] += duration
        else:
            self.wall_s += duration
        self.self_s[metric] = self.self_s.get(metric, 0.0) + own
        span_id = frame[2]
        if span_id is not None:
            self._open_spans.pop()
            record = self.spans[span_id]
            record[2] = end
            record[4] = own
            return
        key = (name, self._open_spans[-1] if self._open_spans else None)
        agg = self.hot.get(key)
        if agg is None:
            self.hot[key] = [1, duration, own]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += own

    def span(self, name: str, metric: str = OTHER) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, metric)

    def innermost(self, name: str) -> int | None:
        """Id of the innermost open span called ``name``, if any."""
        for span_id in reversed(self._open_spans):
            if self.spans[span_id][0] == name:
                return span_id
        return None

    def parent_name(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._open_spans[-1]][0] if self._open_spans else None

    def phase_of(self, span_id: int | None) -> str:
        """The innermost ``phase:`` span enclosing ``span_id``."""
        while span_id is not None:
            name = self.spans[span_id][0]
            if name.startswith(PHASE):
                return name[len(PHASE):]
            span_id = self.spans[span_id][3]
        return "-"

    def current_phase(self) -> str:
        """The innermost open ``phase:`` span."""
        return self.phase_of(self._open_spans[-1] if self._open_spans else None)

    def calls_by_phase(self, entry_name: str) -> dict[str, int]:
        """Calls of one hot entry, grouped by enclosing phase."""
        out: dict[str, int] = {}
        for (name, parent), (calls, _total, _own) in self.hot.items():
            if name == entry_name:
                phase = self.phase_of(parent)
                out[phase] = out.get(phase, 0) + calls
        return out

    def to_dict(self) -> dict:
        """Spans and aggregates in a JSON-ready form."""
        return {
            "wall_s": self.wall_s,
            "self_s": dict(sorted(self.self_s.items())),
            "counters": dict(sorted(self.counters.items())),
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent, "self_s": own}
                for name, start, end, parent, own in self.spans
            ],
            "hot": [
                {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
                for (name, parent), (c, t, s) in self.hot.items()
            ],
        }


class _Span:
    __slots__ = ("tracer", "name", "metric", "frame")

    def __init__(self, tracer: LayerTracer, name: str, metric: str) -> None:
        self.tracer = tracer
        self.name = name
        self.metric = metric

    def __enter__(self) -> "_Span":
        self.frame = self.tracer.open(self.name, True)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer.close(self.name, self.metric, self.frame)
        return False


def wrap(tracer: LayerTracer, entry: Entry, fn: Callable) -> Callable:
    """``fn`` timed as ``entry`` while a traced window is open."""
    name = entry.qualname
    metric = entry.metric
    span = not entry.hot
    count = entry.count
    observe = entry.observe
    frames = tracer.frames

    def traced(*args, **kwargs):
        if not frames:
            return fn(*args, **kwargs)
        frame = tracer.open(name, span)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            tracer.close(name, metric, frame)
            if count is not None:
                tracer.add(count)
            if observe is not None:
                observe(tracer, args, kwargs, result, error)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__qualname__ = getattr(fn, "__qualname__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


def count_calls(tracer: LayerTracer, counter: str, fn: Callable) -> Callable:
    """``fn`` with a call counter and no timing at all."""
    frames = tracer.frames

    def counted(*args, **kwargs):
        if frames:
            tracer.add(counter)
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _resolve(module: str, qualname: str):
    """``(owner, attribute, original)`` of an entry point."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _package_modules():
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", None) or "").startswith("repro"):
            yield mod


class Instrumentation:
    """Installs and removes the wrappers of a set of entry points.

    Module-level functions are replaced in every loaded ``repro``
    module that holds them, because callers that imported them by name
    look them up in their own namespace.  Methods are replaced on the
    class that defines them.  ``extra`` adds hand-made wrappers as
    ``(module, qualname, factory)``; ``on_install`` callbacks run after
    every install (to re-wrap objects built while tracing was on).
    """

    def __init__(self, tracer: LayerTracer, entries, extra=()) -> None:
        self.tracer = tracer
        self.entries = tuple(entries)
        self.extra = tuple(extra)
        self.on_install: list[Callable[[], None]] = []
        self.installed = False
        self._wrappers: dict[int, tuple[Callable, Callable]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._items: list[tuple[dict, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked pool worker runs the originals and records nothing.
        if self.installed:
            self.uninstall()
        self.tracer.frames.clear()

    def _wrapper_for(self, original, make: Callable) -> Callable:
        held = self._wrappers.get(id(original))
        if held is None or held[0] is not original:
            held = (original, make(original))
            self._wrappers[id(original)] = held
        return held[1]

    def _patch(self, module: str, qualname: str, make: Callable) -> None:
        owner, attr, original = _resolve(module, qualname)
        wrapper = self._wrapper_for(original, make)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))
            return
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_item(self, mapping: dict, key: str, make: Callable) -> None:
        """Wrap ``mapping[key]`` until :meth:`uninstall`."""
        original = mapping[key]
        self._items.append((mapping, key, original))
        mapping[key] = self._wrapper_for(original, make)

    def install(self) -> None:
        """Wrap every entry point."""
        if self.installed:
            return
        for entry in self.entries:
            self._patch(
                entry.module,
                entry.qualname,
                lambda fn, e=entry: wrap(self.tracer, e, fn),
            )
        for module, qualname, make in self.extra:
            self._patch(module, qualname, make)
        self.installed = True
        for callback in self.on_install:
            callback()

    def uninstall(self) -> None:
        """Restore every original, including copies made while installed."""
        originals = {id(w): original for original, w in self._wrappers.values()}
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                original = originals.get(id(value))
                if original is not None:
                    setattr(mod, key, original)
        for mapping, key, original in reversed(self._items):
            mapping[key] = original
        self._patches.clear()
        self._items.clear()
        self.installed = False

"""Span tracing for the simulator stack.

A :class:`Tracer` records nested **spans** (named intervals), **instant
events** (points in time) and **counter** samples (numeric tracks, e.g.
per-device power) against a clock.  The clock is any ``() -> float``
callable: ``time.monotonic`` for wall-time traces, or a
:class:`~repro.simcluster.clock.VirtualClock` so a simulated run
produces a *simulated-time* timeline — a one-hour training run traced
in milliseconds of wall time still shows one hour of spans.

Tracing is **off by default and free when off**: the module-level
tracer is a :class:`NullTracer` whose ``span`` returns a shared no-op
context manager, so instrumentation points cost one global lookup and
one method call.  Activate a real tracer for a scope with
:func:`activate`::

    tracer = Tracer(clock=VirtualClock(), sinks=[InMemorySink()])
    with activate(tracer):
        with tracer.span("llm/step", attrs={"iteration": 3}):
            ...
    tracer.close()

Instrumented library code never holds a tracer; it calls
:func:`get_tracer` at use time, so the decision to trace is entirely
the caller's.

Records are plain dicts handed to every sink as they are finalised
(spans on exit, so children precede parents); see
:mod:`repro.obs.sinks` for the sink implementations and the Perfetto
conversion.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.simcluster.clock import VirtualClock

#: Default track spans and events land on (one Perfetto thread row).
MAIN_TRACK = "main"


class _NullSpan:
    """Shared no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Shares the :class:`Tracer` surface so call sites never branch.
    """

    enabled = False
    virtual_clock: VirtualClock | None = None

    def span(self, name: str, attrs: dict | None = None, track: str = MAIN_TRACK):
        """No-op span."""
        return _NULL_SPAN

    def event(self, name: str, attrs: dict | None = None, track: str = MAIN_TRACK) -> None:
        """No-op instant event."""

    def complete_span(
        self,
        name: str,
        t0: float,
        t1: float,
        attrs: dict | None = None,
        track: str = MAIN_TRACK,
    ) -> None:
        """No-op retroactive span."""

    def counter(self, name: str, value: float, t: float | None = None) -> None:
        """No-op counter sample."""

    def close(self) -> None:
        """Nothing to flush."""


NULL_TRACER = NullTracer()


class _SpanHandle:
    """Context manager for one live span of a real :class:`Tracer`."""

    __slots__ = ("_tracer", "name", "attrs", "track", "t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict | None, track: str) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.track = track
        self.t0 = 0.0

    def __enter__(self) -> "_SpanHandle":
        self.t0 = self._tracer._enter(self.track)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._exit(self)
        return False


class Tracer:
    """Records spans, events and counters through pluggable sinks.

    Parameters
    ----------
    clock:
        Time source; ``time.monotonic`` when omitted.  Passing a
        :class:`VirtualClock` additionally exposes it as
        :attr:`virtual_clock`, which the measurement layer adopts so
        every simulated run in the traced scope shares one timeline.
    sinks:
        Objects with ``emit(record: dict)`` and ``close()``; see
        :mod:`repro.obs.sinks`.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        sinks: list | tuple = (),
    ) -> None:
        self._clock: Callable[[], float] = clock if clock is not None else time.monotonic
        self.virtual_clock = clock if isinstance(clock, VirtualClock) else None
        self.sinks = list(sinks)
        self._lock = threading.Lock()
        self._depth: dict[str, int] = {}

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        """Current trace time in seconds."""
        return float(self._clock())

    # -- recording ----------------------------------------------------------

    def _emit(self, record: dict) -> None:
        with self._lock:
            for sink in self.sinks:
                sink.emit(record)

    def _enter(self, track: str) -> float:
        with self._lock:
            self._depth[track] = self._depth.get(track, 0) + 1
        return self.now()

    def _exit(self, handle: _SpanHandle) -> None:
        t1 = self.now()
        with self._lock:
            depth = self._depth.get(handle.track, 1)
            self._depth[handle.track] = depth - 1
        record = {
            "type": "span",
            "name": handle.name,
            "track": handle.track,
            "t0": handle.t0,
            "t1": t1,
            "depth": depth - 1,
        }
        if handle.attrs:
            record["attrs"] = dict(handle.attrs)
        self._emit(record)

    def span(self, name: str, attrs: dict | None = None, track: str = MAIN_TRACK) -> _SpanHandle:
        """A context manager recording ``name`` over its with-block."""
        return _SpanHandle(self, name, attrs, track)

    def complete_span(
        self,
        name: str,
        t0: float,
        t1: float,
        attrs: dict | None = None,
        track: str = MAIN_TRACK,
    ) -> None:
        """Record a span with explicit bounds, after the fact.

        For intervals that do not nest with the call stack — a serving
        request's lifetime spans many scheduler iterations — the caller
        remembers ``t0`` and emits the whole span at completion.  Such
        spans are recorded at depth 0 of their track; put concurrent
        intervals on a dedicated track (e.g. ``"serve"``) so they do
        not collide with the stack-shaped spans of ``main``.
        """
        record = {
            "type": "span",
            "name": name,
            "track": track,
            "t0": float(t0),
            "t1": float(t1),
            "depth": 0,
        }
        if attrs:
            record["attrs"] = dict(attrs)
        self._emit(record)

    def event(self, name: str, attrs: dict | None = None, track: str = MAIN_TRACK) -> None:
        """Record an instant event at the current time."""
        record: dict = {"type": "instant", "name": name, "track": track, "t": self.now()}
        if attrs:
            record["attrs"] = dict(attrs)
        self._emit(record)

    def counter(self, name: str, value: float, t: float | None = None) -> None:
        """Record one sample of a numeric counter track.

        ``t`` overrides the sample time, letting callers replay an
        already-timestamped series (the jpwr sample frame) onto the
        trace.
        """
        self._emit(
            {
                "type": "counter",
                "name": name,
                "t": self.now() if t is None else float(t),
                "value": float(value),
            }
        )

    def close(self) -> None:
        """Close every sink (flushes file-backed sinks)."""
        for sink in self.sinks:
            sink.close()


# -- module-level active tracer ---------------------------------------------

_active: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The tracer instrumented code should record against."""
    return _active


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` (``None`` disables); returns the previous one."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def activate(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Scope-install a tracer, restoring the previous one on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


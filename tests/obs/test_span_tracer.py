"""Span tracer semantics: nesting, the null path, activation."""

from __future__ import annotations

from repro.obs.sinks import InMemorySink
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    activate,
    get_tracer,
    set_tracer,
)
from repro.simcluster.clock import VirtualClock


def _spans(sink: InMemorySink) -> list[dict]:
    return [r for r in sink.records if r["type"] == "span"]


class TestTracer:
    def test_span_records_virtual_interval(self):
        clock = VirtualClock()
        sink = InMemorySink()
        tracer = Tracer(clock=clock, sinks=[sink])
        with tracer.span("outer", attrs={"k": 1}):
            clock.advance(2.5)
        (span,) = _spans(sink)
        assert span["name"] == "outer"
        assert span["t0"] == 0.0
        assert span["t1"] == 2.5
        assert span["depth"] == 0
        assert span["attrs"] == {"k": 1}

    def test_nested_spans_close_children_first(self):
        clock = VirtualClock()
        sink = InMemorySink()
        tracer = Tracer(clock=clock, sinks=[sink])
        with tracer.span("parent"):
            clock.advance(1.0)
            with tracer.span("child"):
                clock.advance(1.0)
            clock.advance(1.0)
        child, parent = _spans(sink)
        assert [child["name"], parent["name"]] == ["child", "parent"]
        assert child["depth"] == 1 and parent["depth"] == 0
        # The child interval nests strictly inside the parent's.
        assert parent["t0"] <= child["t0"] <= child["t1"] <= parent["t1"]

    def test_depth_is_per_track(self):
        clock = VirtualClock()
        sink = InMemorySink()
        tracer = Tracer(clock=clock, sinks=[sink])
        with tracer.span("a", track="one"):
            with tracer.span("b", track="two"):
                pass
        b, a = _spans(sink)
        assert a["depth"] == 0 and b["depth"] == 0
        assert {a["track"], b["track"]} == {"one", "two"}

    def test_complete_span_records_explicit_bounds(self):
        clock = VirtualClock()
        sink = InMemorySink()
        tracer = Tracer(clock=clock, sinks=[sink])
        clock.advance(10.0)  # current time is irrelevant to the record
        tracer.complete_span("request", 1.5, 4.0, attrs={"i": 7}, track="serve")
        (span,) = _spans(sink)
        assert span["name"] == "request"
        assert (span["t0"], span["t1"]) == (1.5, 4.0)
        assert span["track"] == "serve" and span["depth"] == 0
        assert span["attrs"] == {"i": 7}

    def test_complete_span_ignores_open_span_depth(self):
        clock = VirtualClock()
        sink = InMemorySink()
        tracer = Tracer(clock=clock, sinks=[sink])
        with tracer.span("outer"):
            tracer.complete_span("retro", 0.0, 0.5)
        retro, outer = _spans(sink)
        assert retro["depth"] == 0  # retroactive spans never nest
        assert outer["depth"] == 0

    def test_event_and_counter_records(self):
        clock = VirtualClock(start_s=5.0)
        sink = InMemorySink()
        tracer = Tracer(clock=clock, sinks=[sink])
        tracer.event("hit", attrs={"key": "abc"})
        tracer.counter("power/gpu0", 250.0)
        tracer.counter("power/gpu0", 300.0, t=7.5)
        event, c0, c1 = sink.records
        assert event == {
            "type": "instant", "name": "hit", "track": "main", "t": 5.0,
            "attrs": {"key": "abc"},
        }
        assert c0 == {"type": "counter", "name": "power/gpu0", "t": 5.0, "value": 250.0}
        assert c1["t"] == 7.5  # explicit timestamp wins over the clock

    def test_virtual_clock_exposed_only_when_given(self):
        clock = VirtualClock()
        assert Tracer(clock=clock).virtual_clock is clock
        assert Tracer().virtual_clock is None

    def test_close_closes_sinks(self):
        sink = InMemorySink()
        Tracer(sinks=[sink]).close()
        assert sink.closed


class TestNullTracer:
    def test_default_tracer_is_null_and_disabled(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert tracer.enabled is False

    def test_span_is_shared_noop_context_manager(self):
        # Zero-allocation hot path: both spans are the same object.
        first = NULL_TRACER.span("a")
        second = NULL_TRACER.span("b", attrs={"x": 1}, track="t")
        assert first is second
        with first:
            pass

    def test_all_operations_are_noops(self):
        NULL_TRACER.event("e")
        NULL_TRACER.counter("c", 1.0)
        NULL_TRACER.complete_span("s", 0.0, 1.0)
        NULL_TRACER.close()


class TestActivation:
    def test_activate_installs_and_restores(self):
        tracer = Tracer(sinks=[InMemorySink()])
        with activate(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_means_null(self):
        previous = set_tracer(None)
        assert previous is NULL_TRACER
        assert get_tracer() is NULL_TRACER

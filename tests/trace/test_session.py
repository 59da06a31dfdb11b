"""The trace core: clock, events, metrics, session lifecycle and nesting."""

import pytest

from repro.trace import (
    KIND_COUNTER,
    KIND_INSTANT,
    KIND_SPAN,
    Histogram,
    InMemorySink,
    MetricsRegistry,
    TraceClock,
    TraceEvent,
    TraceSession,
    current_session,
    start_tracing,
    stop_tracing,
    trace_complete,
    trace_count,
    trace_instant,
    trace_span,
    tracing,
)


class TestClock:
    def test_tick_is_monotonic(self):
        clock = TraceClock()
        stamps = [clock.tick() for _ in range(5)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 5

    def test_advance_moves_by_cycles(self):
        clock = TraceClock()
        before = clock.now
        clock.advance(128.5)
        assert clock.now == before + 128.5

    def test_negative_advance_ignored(self):
        clock = TraceClock()
        before = clock.now
        clock.advance(-50.0)
        assert clock.now == before


class TestEvent:
    def test_to_dict_round_trips_fields(self):
        event = TraceEvent(
            name="walk", category="walker", kind=KIND_SPAN,
            ts=10.0, dur=42.0, track=3, args={"va": 4096},
        )
        d = event.to_dict()
        assert d["name"] == "walk"
        assert d["kind"] == KIND_SPAN
        assert d["dur"] == 42.0
        assert d["args"] == {"va": 4096}


class TestMetrics:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.count("x")
        registry.count("x", 4.0)
        assert registry.get("x") == 5.0
        assert registry.get("missing") == 0.0

    def test_histogram_stats(self):
        hist = Histogram("walk_cycles")
        for value in (1.0, 2.0, 4.0, 8.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.min == 1.0
        assert hist.max == 8.0
        assert hist.mean == pytest.approx(3.75)

    def test_histogram_buckets_are_powers_of_two(self):
        hist = Histogram("walk_cycles")
        hist.observe(3.0)   # (2, 4]
        hist.observe(100.0)  # (64, 128]
        filled = {upper for upper, count in hist.buckets() if count}
        assert 4.0 in filled
        assert 128.0 in filled

    def test_merge_from_prefixes(self):
        registry = MetricsRegistry()
        registry.merge_from({"cycles": 10.0, "walks": 2.0}, prefix="perf")
        assert registry.get("perf.cycles") == 10.0
        assert registry.get("perf.walks") == 2.0

    def test_render_mentions_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.count("tlb.misses", 7)
        registry.observe("walk_cycles", 33.0)
        text = registry.render()
        assert "tlb.misses" in text
        assert "walk_cycles" in text


class TestSessionLifecycle:
    def test_disabled_by_default(self):
        assert current_session() is None

    def test_start_stop_install_uninstall(self):
        session = start_tracing()
        assert current_session() is session
        returned = stop_tracing()
        assert returned is session
        assert current_session() is None

    def test_tracing_context_manager_scopes_the_session(self):
        with tracing() as session:
            assert current_session() is session
        assert current_session() is None

    def test_stop_closes_sinks(self):
        sink = InMemorySink()
        with tracing(sinks=[sink]):
            pass
        assert sink.closed

    def test_close_is_idempotent(self):
        sink = InMemorySink()
        session = TraceSession(sinks=[sink])
        session.close()
        session.close()
        assert sink.closed

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceSession(capacity=0)


class TestHelpers:
    """The four emission helpers act on the installed session and do
    nothing without one."""

    def _emit(self):
        ran = []
        with trace_span("outer", category="mitosis", mask=[0, 1]) as span:
            trace_instant("inside", category="mitosis", copies=2)
            trace_complete("backoff", category="daemon", dur=4.0, epoch=1)
            trace_count("pvops.entry_writes", 3.0)
            span.set(tables=5)
            ran.append(True)
        return ran

    def test_without_a_session_the_body_runs_once(self):
        assert current_session() is None
        assert self._emit() == [True]

    def test_with_a_session_they_match_the_session_methods(self):
        with tracing() as session:
            self._emit()
        inside, backoff, outer = session.events
        assert (inside.kind, inside.args) == (KIND_INSTANT, {"copies": 2})
        assert (backoff.kind, backoff.dur, backoff.args) == (KIND_SPAN, 4.0, {"epoch": 1})
        assert outer.name == "outer" and outer.category == "mitosis"
        assert outer.args == {"mask": [0, 1], "depth": 0, "tables": 5}
        assert session.metrics.get("pvops.entry_writes") == 3.0

    def test_a_raise_propagates_and_closes_the_span(self):
        with pytest.raises(KeyError):
            with trace_span("failing"):
                raise KeyError("untraced")
        with tracing() as session:
            with pytest.raises(KeyError):
                with trace_span("failing"):
                    raise KeyError("traced")
        (failing,) = session.events
        assert (failing.name, failing.kind, failing.args) == ("failing", KIND_SPAN, {"depth": 0})


class TestRecording:
    def test_instant_and_counter_kinds(self):
        session = TraceSession()
        session.instant("fault", category="inject", site="mem.allocator.oom")
        session.counter_sample("free_frames", 12.0)
        kinds = [e.kind for e in session.events]
        assert kinds == [KIND_INSTANT, KIND_COUNTER]
        assert session.metrics.get("free_frames") == 12.0

    def test_complete_advances_the_clock(self):
        session = TraceSession()
        event = session.complete("walk", category="walker", dur=100.0)
        assert event.kind == KIND_SPAN
        assert session.clock.now >= event.ts + 100.0

    def test_ring_drops_oldest_and_counts(self):
        session = TraceSession(capacity=3)
        for i in range(5):
            session.instant(f"e{i}")
        assert session.dropped == 2
        assert session.emitted == 5
        assert [e.name for e in session.events] == ["e2", "e3", "e4"]

    def test_sinks_see_ring_dropped_events(self):
        sink = InMemorySink()
        session = TraceSession(capacity=2, sinks=[sink])
        for i in range(4):
            session.instant(f"e{i}")
        assert len(sink.events) == 4

    def test_span_nesting_records_parent_and_depth(self):
        session = TraceSession()
        with session.span("outer", category="chaos"):
            with session.span("inner", category="mitosis") as handle:
                handle.set(result="ok")
        inner, outer = session.events  # inner closes (and records) first
        assert inner.name == "inner"
        assert inner.args["parent"] == "outer"
        assert inner.args["depth"] == 1
        assert inner.args["result"] == "ok"
        assert outer.args["depth"] == 0
        assert "parent" not in outer.args
        assert outer.dur >= inner.dur

    def test_events_named_filters(self):
        session = TraceSession()
        session.instant("a")
        session.instant("b")
        session.instant("a")
        assert len(session.events_named("a")) == 2

    def test_summary_mentions_volume_and_counters(self):
        session = TraceSession()
        session.instant("x", category="walker")
        session.count("tlb.walks", 3)
        text = session.summary()
        assert "1 event(s)" in text
        assert "walker" in text
        assert "tlb.walks" in text

    def test_track_names_registered(self):
        session = TraceSession()
        session.name_track(1, "thread-0 (socket 0)")
        assert session.track_names[1] == "thread-0 (socket 0)"

"""The process-wide trace session and the zero-overhead enable switch.

One :class:`TraceSession` owns the ring buffer of events, the metric
registry, the virtual clock and the attached sinks. At most one session
is *installed* at a time. Instrumented code emits through four helpers
that act on the installed session and do nothing when none is
installed:

::

    from repro.trace import trace_count, trace_instant, trace_span

    trace_instant("fault", category="inject", site=site)
    trace_count("pvops.entry_writes")
    with trace_span("mitosis.enable", category="mitosis") as span:
        ...
        span.set(tables_allocated=n)   # a no-op with tracing off

:func:`trace_complete` records an already-measured span. With tracing
off :func:`trace_span` returns a shared handle whose ``set`` does
nothing, so a traced block runs exactly once either way.

**The zero-overhead-when-disabled guarantee.** With no session installed
each helper costs one function call and one ``is None`` test on a module
global: no event objects, no dict lookups, no string formatting. The
engine emits per walk and per level, so it reads :func:`current_session`
once per run and tests the hoisted local instead;
``benchmarks/perf/test_tracing_overhead.py`` holds each engine tier's
tracing-off cost under 2 %.

Spans nest: :meth:`TraceSession.span` is a context manager that tracks a
per-track stack, so a ``mitosis.enable`` span opened inside a
``chaos.replication-oom`` span records its parent and depth. For bulk
hot-path emission where enter/exit pairs would be wasteful there is
:meth:`TraceSession.complete`, which records an already-measured span
and advances the clock by its duration.
"""

from __future__ import annotations

from collections import deque
from contextlib import AbstractContextManager, contextmanager
from typing import Any, Iterator

from repro.trace.clock import TraceClock
from repro.trace.events import KIND_COUNTER, KIND_INSTANT, KIND_SPAN, TraceEvent
from repro.trace.metrics import MetricsRegistry

#: The installed session; ``None`` means tracing is disabled everywhere.
_SESSION: "TraceSession | None" = None


def current_session() -> "TraceSession | None":
    """The installed :class:`TraceSession`, or ``None`` when tracing is
    off. Hot paths hoist this lookup out of their inner loops."""
    return _SESSION


def trace_span(
    name: str, category: str = "", track: int = 0, **args: Any
) -> "AbstractContextManager[_SpanHandle | _NullSpan]":
    """:meth:`TraceSession.span` on the installed session; with tracing
    off, a context manager whose handle's ``set`` does nothing."""
    if _SESSION is None:
        return _NULL_SPAN
    return _SESSION.span(name, category, track, **args)


def trace_instant(name: str, category: str = "", track: int = 0, **args: Any) -> None:
    """:meth:`TraceSession.instant` on the installed session, if any."""
    if _SESSION is not None:
        _SESSION.instant(name, category, track, **args)


def trace_complete(
    name: str, category: str = "", dur: float = 0.0, track: int = 0, **args: Any
) -> None:
    """:meth:`TraceSession.complete` on the installed session, if any."""
    if _SESSION is not None:
        _SESSION.complete(name, category, dur, track, **args)


def trace_count(name: str, delta: float = 1.0) -> None:
    """:meth:`TraceSession.count` on the installed session, if any."""
    if _SESSION is not None:
        _SESSION.count(name, delta)


# protocol: begins[trace-session] -- a session is now live; every path must stop it
def start_tracing(session: "TraceSession | None" = None, **kwargs: Any) -> "TraceSession":
    """Install ``session`` (or a freshly built one) as the process-wide
    trace session and return it.

    Keyword arguments are forwarded to :class:`TraceSession` when no
    session is given. Starting while another session is installed
    replaces it without closing it (the caller owns both).
    """
    global _SESSION
    if session is None:
        session = TraceSession(**kwargs)
    _SESSION = session
    return session


# protocol: ends[trace-session] -- closes and detaches the live session
def stop_tracing() -> "TraceSession | None":
    """Uninstall and close the current session; returns it (its ring
    buffer, metrics and in-memory sinks stay readable after close)."""
    global _SESSION
    session = _SESSION
    _SESSION = None
    if session is not None:
        session.close()
    return session


@contextmanager
def tracing(session: "TraceSession | None" = None, **kwargs: Any) -> Iterator["TraceSession"]:
    """``with tracing(sinks=[...]) as session:`` — scoped enable/disable."""
    installed = start_tracing(session, **kwargs)
    try:
        yield installed
    finally:
        stop_tracing()


class _SpanHandle:
    """Mutable payload holder yielded by :meth:`TraceSession.span`; call
    :meth:`set` to attach result arguments before the span closes."""

    __slots__ = ("name", "ts", "args")

    def __init__(self, name: str, ts: float, args: dict[str, Any]):
        self.name = name
        self.ts = ts
        self.args = args

    def set(self, **args: Any) -> None:
        """Merge ``args`` into the span's payload."""
        self.args.update(args)


class _NullSpan:
    """What :func:`trace_span` returns with tracing off: a context
    manager that yields itself, with a :meth:`set` that does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **args: Any) -> None:
        """Drop ``args``: no span records them."""


_NULL_SPAN = _NullSpan()


# concurrency: not-fork-inheritable -- sinks hold open file handles; a forked
# child would interleave writes with the parent. Workers open a fresh session
# per job (see repro.fleet.pool.execute_job).
class TraceSession:
    """Ring-buffered event store + metric registry + sinks.

    Args:
        capacity: Ring-buffer size; the oldest events are dropped (and
            counted in :attr:`dropped`) once full. Sinks always see every
            event regardless of the ring.
        sinks: Objects with ``handle(event)``/``close()`` (see
            :mod:`repro.trace.sinks`).
        metadata: JSON-safe run context (scenario name, seed, workload)
            carried into exports.
    """

    def __init__(
        self,
        capacity: int = 65536,
        sinks: "tuple | list" = (),
        metadata: dict[str, Any] | None = None,
    ):
        if capacity <= 0:
            raise ValueError("trace ring capacity must be positive")
        self.capacity = capacity
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.sinks = list(sinks)
        self.metrics = MetricsRegistry()
        self.metadata: dict[str, Any] = dict(metadata or {})
        self.clock = TraceClock()
        self.dropped = 0
        self.emitted = 0
        self.track_names: dict[int, str] = {}
        self._span_stacks: dict[int, list[str]] = {}
        self._closed = False

    # -- core recording -------------------------------------------------------

    # dataflow: sink[determinism] -- two traces of the same seeded run must be bit-identical
    def _record(self, event: TraceEvent) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)
        self.emitted += 1
        for sink in self.sinks:
            sink.handle(event)

    def instant(self, name: str, category: str = "", track: int = 0, **args: Any) -> TraceEvent:
        """Record a point event (a fault firing, a daemon decision)."""
        event = TraceEvent(
            name=name, category=category, kind=KIND_INSTANT,
            ts=self.clock.tick(), track=track, args=args,
        )
        self._record(event)
        return event

    def complete(
        self, name: str, category: str = "", dur: float = 0.0, track: int = 0, **args: Any
    ) -> TraceEvent:
        """Record an already-measured span of ``dur`` virtual units
        starting now; the clock advances past it. This is the bulk
        emission path the engine uses for page-walk spans."""
        ts = self.clock.tick()
        self.clock.advance(dur)
        event = TraceEvent(
            name=name, category=category, kind=KIND_SPAN,
            ts=ts, dur=dur, track=track, args=args,
        )
        self._record(event)
        return event

    @contextmanager
    def span(self, name: str, category: str = "", track: int = 0, **args: Any) -> Iterator[_SpanHandle]:
        """Open a nested span; everything recorded inside extends it.

        The span records its ``depth`` and (when nested) ``parent`` span
        name, so exports and test assertions can reconstruct the tree.
        """
        stack = self._span_stacks.setdefault(track, [])
        payload = dict(args)
        payload["depth"] = len(stack)
        if stack:
            payload["parent"] = stack[-1]
        handle = _SpanHandle(name, self.clock.tick(), payload)
        stack.append(name)
        try:
            yield handle
        finally:
            stack.pop()
            dur = max(self.clock.tick() - handle.ts, 0.0)
            self._record(
                TraceEvent(
                    name=name, category=category, kind=KIND_SPAN,
                    ts=handle.ts, dur=dur, track=track, args=handle.args,
                )
            )

    def counter_sample(self, name: str, value: float, category: str = "metric", track: int = 0) -> None:
        """Record one sample of a numeric series (Chrome renders these as
        stacked counter tracks) *and* fold it into the registry."""
        self.metrics.count(name, value)
        self._record(
            TraceEvent(
                name=name, category=category, kind=KIND_COUNTER,
                ts=self.clock.tick(), track=track, args={"value": value},
            )
        )

    # -- metric conveniences --------------------------------------------------

    def count(self, name: str, delta: float = 1.0) -> None:
        """Add to a named counter without emitting an event (the cheap
        path for hot sites like the PV-Ops choke point)."""
        self.metrics.count(name, delta)

    def observe(self, name: str, value: float) -> None:
        """Record into a named histogram (e.g. per-walk cycle cost)."""
        self.metrics.observe(name, value)

    def name_track(self, track: int, name: str) -> None:
        """Attach a display name to a track (becomes the Perfetto row
        label via Chrome ``thread_name`` metadata)."""
        self.track_names[track] = name

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close every sink (idempotent). File sinks flush/write here."""
        if self._closed:
            return
        self._closed = True
        for sink in self.sinks:
            sink.close()

    # -- reporting ------------------------------------------------------------

    def events_named(self, name: str) -> list[TraceEvent]:
        """Ring-buffer events with this exact name (test convenience)."""
        return [e for e in self.events if e.name == name]

    def summary(self) -> str:
        """Human-readable digest: event volume by category, then metrics."""
        by_category: dict[str, int] = {}
        for event in self.events:
            key = event.category or "(uncategorised)"
            by_category[key] = by_category.get(key, 0) + 1
        lines = [
            f"trace summary: {self.emitted} event(s) emitted, "
            f"{len(self.events)} in ring, {self.dropped} dropped"
        ]
        for category in sorted(by_category):
            lines.append(f"  events[{category:<12}] {by_category[category]}")
        lines.append("counters:")
        lines.append(self.metrics.render())
        return "\n".join(lines)

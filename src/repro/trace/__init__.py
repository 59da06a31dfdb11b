"""``repro.trace`` — structured tracing and metrics for the simulator.

The paper's evaluation depends on attributing cycles to *where* each
page-walk level landed (local vs. remote socket) and *when* replication
and migration events fired. This package makes that attribution a
first-class, queryable event stream instead of print-statement
archaeology:

* a process-wide :class:`TraceSession` with a ring buffer of structured
  events, named counters and power-of-two histograms;
* :meth:`~TraceSession.span` context managers with parent/child nesting,
  plus a bulk :meth:`~TraceSession.complete` path for hot loops;
* pluggable sinks — :class:`InMemorySink` for test assertions,
  :class:`JsonlSink` for streaming logs, :class:`ChromeTraceSink` for
  Perfetto / ``chrome://tracing`` timelines;
* one emission idiom: :func:`trace_span`, :func:`trace_instant`,
  :func:`trace_complete` and :func:`trace_count` act on the installed
  session and do nothing when tracing is off (``trace_span`` then yields
  a handle whose ``set`` does nothing);
* **zero overhead when disabled**: a helper call costs one ``is None``
  test; the engine, which emits per walk and per level, hoists
  :func:`current_session` out of its loops instead.

Quickstart::

    from repro.trace import ChromeTraceSink, tracing

    with tracing(sinks=[ChromeTraceSink("trace.json")]) as session:
        run_multisocket("gups", "F+M")        # any existing harness
    print(session.summary())

or from the command line::

    python -m repro trace --out trace.json chaos --scenario replication-oom

See docs/observability.md for the trace model, the sink catalogue, the
Perfetto how-to and the instrumentation map.
"""

from repro.trace.clock import TraceClock
from repro.trace.events import (
    ALL_KINDS,
    KIND_COUNTER,
    KIND_INSTANT,
    KIND_SPAN,
    TraceEvent,
)
from repro.trace.metrics import Histogram, MetricsRegistry
from repro.trace.session import (
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
from repro.trace.sinks import ChromeTraceSink, InMemorySink, JsonlSink, Sink

_INTEGRATE_NAMES = ("publish_run_metrics", "publish_chaos_report")

__all__ = [
    "ALL_KINDS",
    "ChromeTraceSink",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "KIND_COUNTER",
    "KIND_INSTANT",
    "KIND_SPAN",
    "MetricsRegistry",
    "Sink",
    "TraceClock",
    "TraceEvent",
    "TraceSession",
    "current_session",
    "start_tracing",
    "stop_tracing",
    "trace_complete",
    "trace_count",
    "trace_instant",
    "trace_span",
    "tracing",
    *_INTEGRATE_NAMES,
]


def __getattr__(name: str):
    # The integrate bridge imports repro.sim lazily so the trace core
    # stays importable from the lowest layers (allocator, fault plan).
    if name in _INTEGRATE_NAMES:
        from repro.trace import integrate

        return getattr(integrate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

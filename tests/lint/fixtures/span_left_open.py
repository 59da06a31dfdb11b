"""Seeded SPAN001 violations: a leaked session and never-entered spans.

``traced_run`` starts a session but only stops it on the normal path —
if ``work()`` raises, the session leaks (SPAN001 counts exception
paths). ``fire_and_forget`` calls the ``span()`` factory without ever
entering the returned context manager, so the span can never close;
``helper_forgotten`` does the same with the ``trace_span()`` helper.
``traced_safely`` and ``helper_entered`` are the correct twins:
try/finally pairs the calls on every path, and ``with`` closes the span.
"""


class TraceSession:
    def span(self, name: str):
        return name


def trace_span(name: str):
    return TraceSession().span(name)


# protocol: begins[trace-session] -- a session is live; every path must stop it
def start_tracing() -> TraceSession:
    return TraceSession()


# protocol: ends[trace-session] -- closes and detaches the live session
def stop_tracing() -> None:
    return None


def traced_run(work) -> object:
    start_tracing()
    result = work()  # BUG: if this raises, stop_tracing never runs
    stop_tracing()
    return result


def fire_and_forget(session: TraceSession) -> None:
    session.span("phase")  # BUG: never entered; the span cannot close


def traced_safely(work) -> object:
    start_tracing()
    try:
        return work()
    finally:
        stop_tracing()


def helper_forgotten() -> None:
    trace_span("phase")  # BUG: never entered; the span cannot close


def helper_entered() -> None:
    with trace_span("phase"):
        pass

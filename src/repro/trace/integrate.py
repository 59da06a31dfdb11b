"""Bridges from the simulator's existing counter structs into a session.

The trace core (:mod:`repro.trace.session` and friends) is stdlib-only so
the lowest layers — the fault plan, the allocator — can import it without
dragging in the kernel. This module is the one place allowed to know
about :class:`~repro.sim.metrics.RunMetrics` and the perf-counter
renderer, so robustness counters (faults injected, degradations,
retries, recoveries) and the perf-event view of a run flow into the same
:class:`~repro.trace.metrics.MetricsRegistry` as the live trace counters.
Like the ``trace_*`` helpers, each bridge acts on the installed session
and does nothing when tracing is off.
"""

from __future__ import annotations

from repro.trace.session import current_session


def publish_run_metrics(metrics, prefix: str = "perf") -> None:
    """Fold one finished run's counters into the session's registry.

    Every counter of :func:`repro.sim.perfcounters.perf_stat` — the
    hardware-shaped events *and* the ``mitosis.*`` robustness software
    counters — is added under ``{prefix}.``; running several configs in
    one session accumulates totals. A ``run-metrics`` instant event marks
    the publication point on the timeline with the headline numbers, and
    the whole publication is wrapped in a ``trace.publish`` span so its
    cost is attributable on the timeline like any other phase.
    """
    session = current_session()
    if session is None:
        return
    from repro.sim.perfcounters import perf_stat

    with session.span("trace.publish", category="metrics", prefix=prefix) as span:
        report = perf_stat(metrics)
        session.metrics.merge_from(report.counters, prefix=prefix)
        session.instant(
            "run-metrics",
            category="metrics",
            runtime_cycles=round(metrics.runtime_cycles, 1),
            walk_cycle_fraction=round(metrics.walk_cycle_fraction, 4),
            tlb_miss_rate=round(metrics.tlb_miss_rate, 4),
            faults_injected=metrics.faults_injected,
            degradations=metrics.degradations,
            retries=metrics.retries,
            recoveries=metrics.recoveries,
        )
        span.set(counters=len(report.counters))


def publish_chaos_report(report) -> None:
    """Fold a :class:`~repro.sim.chaos.ChaosReport` into the session.

    The resilience arc (degradations/retries/rescues/recoveries) lands
    under ``chaos.``; the verifier verdict is both a counter
    (``chaos.verify_violations``) and an instant event so a failed
    verification is visible on the timeline. Per-site ``inject.{site}``
    counters are *not* re-added here — :meth:`repro.inject.FaultPlan.fire`
    already counts each injection live as it happens.
    """
    session = current_session()
    if session is None:
        return
    session.metrics.count("chaos.faults_injected", float(report.faults_injected))
    session.metrics.count("chaos.degradations", float(report.degradations))
    session.metrics.count("chaos.retries", float(report.retries))
    session.metrics.count("chaos.reclaim_rescues", float(report.reclaim_rescues))
    session.metrics.count("chaos.recoveries", float(report.recoveries))
    session.metrics.count(
        "chaos.verify_violations", float(len(report.verify.violations))
    )
    session.instant(
        "chaos-verdict",
        category="chaos",
        scenario=report.scenario,
        seed=report.seed,
        ok=report.ok,
        violations=len(report.verify.violations),
    )


def publish_fleet_report(report) -> None:
    """Fold a :class:`~repro.fleet.report.FleetReport` into the session.

    Terminal-status counts, supervision counters (retries / timeouts /
    crashes / errors) and the self-injected fault totals land under
    ``fleet.``; a ``fleet-verdict`` instant pins the dispatch's outcome
    on the timeline. The per-job ``fleet.{status}`` live counters are
    emitted by the dispatcher as each cell settles — this publishes only
    the end-of-run aggregates.
    """
    session = current_session()
    if session is None:
        return
    session.metrics.count("fleet.jobs", float(report.jobs))
    session.metrics.count("fleet.retries_total", float(report.retries))
    session.metrics.count("fleet.timeouts", float(report.timeouts))
    session.metrics.count("fleet.crashes", float(report.crashes))
    session.metrics.count("fleet.errors", float(report.errors))
    session.metrics.count(
        "fleet.injected_faults",
        float(report.injected_crashes + report.injected_hangs),
    )
    session.instant(
        "fleet-verdict",
        category="fleet",
        jobs=report.jobs,
        cached=report.cached,
        computed=report.computed,
        quarantined=report.quarantined,
        ok=report.ok,
        interrupted=report.interrupted,
    )

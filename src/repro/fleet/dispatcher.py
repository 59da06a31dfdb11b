"""The fleet dispatcher: shard jobs across supervised workers, survive
everything.

``Fleet.run`` takes a list of job specs and drives every cell to a
terminal state:

1. **Cache first** — each spec content-hashes to a key
   (:func:`repro.fleet.jobs.job_key`); a verified cache entry is a
   ``cached`` outcome and costs nothing.
2. **Supervised execution** — misses fan out across a **persistent
   warm pool** of ``workers`` child processes
   (:class:`~repro.fleet.pool.WorkerPool`): long-lived processes that
   import once and then loop pulling jobs over a duplex pipe. Each
   attempt has a wall-clock timeout with SIGTERM→SIGKILL escalation, and
   a timed-out or crashed worker is killed and *recycled* (a fresh
   process takes over the slot). ``workers=0`` runs inline instead
   (tests, tiny sweeps). Each slot holds up to two leases, the running
   attempt and the next one, and each pass of the loop collects decided
   attempts, refills the freed slots, and only then settles them, so
   the workers never wait on a cache write. The dispatcher sleeps
   **event-driven** — :func:`multiprocessing.connection.wait` over every
   busy worker's pipe/sentinel with the earliest deadline as the
   timeout — never on a fixed poll interval.
3. **Bounded retries** — a failed attempt (error, crash, timeout)
   requeues with exponential backoff plus deterministic jitter (the
   backoff shape of :class:`~repro.mitosis.daemon.MitosisDaemon`, in
   seconds instead of epochs).
4. **Quarantine** — after ``max_attempts`` failures the cell is
   quarantined: reported with its failure history and a one-line
   reproducer, and the fleet moves on. A poisoned job can never wedge
   the sweep.
5. **Checkpointed shutdown** — every completed result is already in the
   crash-safe cache, so SIGINT (KeyboardInterrupt) just stops cleanly:
   in-flight workers are killed, finished results drained, and the
   partial report marked ``interrupted``. Re-invoking resumes from the
   cache without recomputing a single completed cell.

**Self-hosting chaos**: a :class:`~repro.inject.FaultPlan` handed to
:class:`FleetConfig` is consulted at the site
``fleet.worker.crash`` before every launch — a firing rule simulates a
worker crash (or, with ``delay_multiplier > 1``, a hung worker accounted
as a timeout), exercising this module's own retry/quarantine machinery
with the same seeded determinism as every other chaos scenario.
"""

from __future__ import annotations

import random
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Callable

from repro._version import __version__
from repro.fleet.cache import ResultCache
from repro.fleet.jobs import JobSpecLike, job_key
from repro.fleet.pool import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    AttemptOutcome,
    PoolWorker,
    WorkerPool,
)
from repro.fleet.report import (
    STATUS_CACHED,
    STATUS_COMPUTED,
    STATUS_QUARANTINED,
    FleetReport,
    JobOutcome,
)
from repro.inject.plan import SITE_WORKER_CRASH, FaultPlan
from repro.sim.engine import resolve_engine
from repro.trace.integrate import publish_fleet_report
from repro.trace.session import current_session


def _now() -> float:
    """Wall clock for scheduling only (timeouts, backoff windows)."""
    return time.monotonic()  # lint: allow[DET001] -- fleet scheduling is real time


def run_attempt_inline(spec: JobSpecLike, attempt: int) -> AttemptOutcome:
    """Run one attempt in-process (``workers=0`` mode).

    No isolation — a genuinely crashing or hanging job takes the
    dispatcher with it — but exact determinism and zero fork overhead,
    which is what tests and tiny sweeps want. Injected crashes/hangs
    (site ``fleet.worker.crash``) are simulated by the dispatcher before
    this is reached, so the fleet's failure handling stays testable even
    inline.
    """
    start = _now()
    try:
        payload = spec.run(attempt=attempt)
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # noqa: BLE001 - the outcome *is* the handler
        return AttemptOutcome(
            status=OUTCOME_ERROR,
            detail=f"{type(exc).__name__}: {exc}",
            seconds=_now() - start,
        )
    return AttemptOutcome(
        status=OUTCOME_OK, payload=payload, seconds=_now() - start
    )


@dataclass
class FleetConfig:
    """Tunables of one dispatch."""

    #: Warm pool size; 0 = run jobs inline in this process.
    workers: int = 2
    #: Per-attempt wall-clock budget before the SIGKILL escalation.
    timeout: float = 60.0
    #: SIGTERM → SIGKILL grace, and how long to wait for a clean exit.
    grace: float = 0.5
    #: Attempts per job before quarantine (first try + retries).
    max_attempts: int = 3
    #: Retry backoff: ``base * 2**(attempt-1)`` seconds, capped, plus up
    #: to 25% deterministic jitter (same shape as the mitosis daemon's
    #: degraded-mask retry, which backs off in epochs).
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Seed for the jitter RNG (mixed with each job key).
    seed: int = 0
    #: Code version baked into every cache key.
    code_version: str = __version__
    #: Directory for per-job Chrome trace bundles (worker mode only).
    trace_dir: str | None = None
    #: Self-hosting chaos: consulted at ``fleet.worker.crash`` per launch.
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(
                f"workers must be >= 0 (0 runs inline), got {self.workers}"
            )
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout:g}s")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


@dataclass
class _JobState:
    """Dispatcher-side bookkeeping for one pending cell."""

    spec: JobSpecLike
    key: str
    attempts: int = 0
    failures: list[str] = field(default_factory=list)
    not_before: float = 0.0
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    #: Handed back unstarted by a recycled slot: the fault plan already
    #: let this attempt through, so its relaunch does not consult it again.
    handed_back: bool = False


class Fleet:
    """One dispatcher bound to a config and a result cache."""

    def __init__(self, config: FleetConfig, cache: ResultCache):
        self.config = config
        self.cache = cache
        #: Per-run trace-bundle directory (created once per ``run``).
        self._trace_root: Path | None = None

    # -- public entry ----------------------------------------------------------

    def run(
        self,
        specs: list[JobSpecLike],
        progress: Callable[[FleetReport, JobOutcome], None] | None = None,
    ) -> FleetReport:
        """Drive every spec to a terminal outcome; returns the report.

        ``progress`` is called after each terminal outcome (the CLI's
        ticker; tests also use it to simulate a mid-sweep SIGINT by
        raising ``KeyboardInterrupt`` from it).
        """
        config = self.config
        # The tier the workers will run (they inherit REPRO_ENGINE), so the
        # cache keys and the report name what was actually computed.
        report = FleetReport(engine=resolve_engine(), code_version=config.code_version)
        report.dispatch_mode = "inline" if config.workers == 0 else "pooled"
        session = current_session()
        start = _now()
        if session is None:
            self._dispatch(specs, report, progress)
        else:
            with session.span(
                "fleet.run", category="fleet", jobs=len(specs), workers=config.workers
            ) as span:
                self._dispatch(specs, report, progress)
                span.set(
                    cached=report.cached,
                    computed=report.computed,
                    quarantined=report.quarantined,
                    interrupted=report.interrupted,
                )
            publish_fleet_report(session, report)
        report.wall_seconds = _now() - start
        report.cache = self.cache.stats.to_dict()
        return report

    # -- the dispatch loop -----------------------------------------------------

    def _dispatch(self, specs, report, progress) -> None:
        config = self.config
        pending: list[_JobState] = []
        seen: set[str] = set()
        for spec in specs:
            key = job_key(spec, engine=report.engine, code_version=config.code_version)
            if key in seen:
                continue  # identical cell listed twice: one outcome
            seen.add(key)
            cached = self.cache.get(key)
            if cached is not None:
                self._settle_cached(report, spec, key, cached, progress)
                continue
            pending.append(
                _JobState(
                    spec=spec,
                    key=key,
                    rng=random.Random(config.seed ^ zlib.crc32(key.encode())),
                )
            )

        # One syscall per run, not per launch: the per-job trace bundle
        # directory is created here and only joined against below.
        self._trace_root = None
        if config.trace_dir and config.workers > 0:
            self._trace_root = Path(config.trace_dir)
            self._trace_root.mkdir(parents=True, exist_ok=True)

        pool: WorkerPool | None = None
        if config.workers > 0 and pending:
            pool = WorkerPool(
                size=min(config.workers, len(pending)), grace=config.grace
            )
        # Each slot's leased job states, running one first.
        leased: dict[PoolWorker, deque[_JobState]] = (
            {worker: deque() for worker in pool.workers} if pool is not None else {}
        )
        # Attempts decided this pass, in the order collected. States and
        # outcomes stay in separate lists: an outcome's wall-clock
        # seconds never flow into a job state.
        decided: list[_JobState] = []
        outcomes: list[AttemptOutcome] = []
        try:
            while pending or any(leased.values()):
                self._collect(leased, pending, decided, outcomes)
                launched = self._launch_eligible(
                    pending, leased, pool, report, progress
                )
                settled = bool(decided)
                self._settle_decided(decided, outcomes, pending, report, progress)
                if not launched and not settled:
                    self._wait_for_event(pending, leased)
        except KeyboardInterrupt:
            # Graceful shutdown: drain anything already finished (their
            # results are checkpointed in the cache), kill the rest.
            self._collect(leased, pending, decided, outcomes)
            self._settle_decided(decided, outcomes, pending, report, progress=None)
            for worker in leased:
                if worker.busy:
                    worker.abort()
            report.interrupted = True
        finally:
            if pool is not None:
                pool.close()
                report.worker_recycles = pool.recycles

    def _wait_for_event(self, pending, leased) -> None:
        """Sleep until something can change: a worker pipe/sentinel fires,
        the earliest attempt deadline passes, or the earliest backoff
        window opens. Event-driven in every mode — settlement latency is
        bounded by the OS wakeup, not a poll quantum.

        With nothing running, every pending job was in backoff at the
        launch pass; a window that opened since leaves no timeout, and the
        caller's next pass launches it without sleeping."""
        now = _now()
        timeout = None
        for state in pending:
            if state.not_before > now:
                remaining = state.not_before - now
                timeout = remaining if timeout is None else min(timeout, remaining)
        busy = [worker for worker, states in leased.items() if states]
        for worker in busy:
            remaining = worker.deadline - now
            timeout = remaining if timeout is None else min(timeout, remaining)
        if busy:
            objects = [obj for worker in busy for obj in worker.wait_objects]
            mp_connection.wait(objects, max(timeout, 0.0))
        elif timeout is not None:
            time.sleep(timeout)  # lint: allow[DET001] -- backoff windows are real time

    def _launch_eligible(self, pending, leased, pool, report, progress) -> bool:
        """Start (or inline-run) every eligible pending job while a slot
        has room; True if any."""
        config = self.config
        launched = False
        now = _now()
        index = 0
        while index < len(pending):
            state = pending[index]
            if state.not_before > now:
                index += 1
                continue
            worker = pool.idle_worker() if pool is not None else None
            if pool is not None and worker is None:
                break  # every slot holds its full set of leases
            pending.pop(index)
            launched = True
            state.attempts += 1
            injected = None if state.handed_back else self._injected_outcome(state)
            state.handed_back = False
            if injected is not None:
                self._settle_attempt(state, injected, pending, report, progress)
                continue
            if worker is None:
                outcome = run_attempt_inline(state.spec, state.attempts)
                self._settle_attempt(state, outcome, pending, report, progress)
                continue
            worker.submit(
                state.spec,
                state.attempts,
                timeout=config.timeout,
                trace_path=self._trace_path(state),
            )
            leased[worker].append(state)
        return launched

    def _collect(self, leased, pending, decided, outcomes) -> None:
        """Take every decided attempt off the slots, into ``decided`` and
        ``outcomes``. A slot can decide several leases in one pass. When a
        slot recycles, the states of its queued leases go back to the
        front of ``pending`` unstarted: their attempt count is restored
        and no failure is counted."""
        handed_back: list[_JobState] = []
        for worker, states in leased.items():
            while states:
                outcome = worker.poll()
                if outcome is None:
                    break
                decided.append(states.popleft())
                outcomes.append(outcome)
                if states and not worker.busy:
                    for state in states:
                        state.attempts -= 1
                        state.handed_back = True
                    handed_back.extend(states)
                    states.clear()
        pending[:0] = handed_back

    def _settle_decided(self, decided, outcomes, pending, report, progress) -> None:
        """Settle the collected attempts in order (cache write, report,
        ``progress``), taking each off the lists before it settles."""
        while decided:
            state = decided.pop(0)
            outcome = outcomes.pop(0)
            self._settle_attempt(state, outcome, pending, report, progress)

    # -- attempt settlement ----------------------------------------------------

    def _injected_outcome(self, state: _JobState) -> AttemptOutcome | None:
        """Self-hosting chaos: should this launch die before it starts?"""
        plan = self.config.fault_plan
        if plan is None:
            return None
        rule = plan.fire(
            SITE_WORKER_CRASH,
            key=state.key[:12],
            kind=state.spec.kind,
            label=state.spec.label(),
            attempt=state.attempts,
        )
        if rule is None:
            return None
        if rule.delay_multiplier > 1.0:
            return AttemptOutcome(
                status=OUTCOME_TIMEOUT,
                detail="injected hang (fleet.worker.crash): worker killed at deadline",
            )
        return AttemptOutcome(
            status=OUTCOME_CRASH,
            detail="injected crash (fleet.worker.crash): worker died without a result",
        )

    def _settle_attempt(
        self, state, outcome: AttemptOutcome, pending, report, progress
    ) -> None:
        config = self.config
        session = current_session()
        if outcome.status == OUTCOME_OK:
            payload = outcome.payload if isinstance(outcome.payload, dict) else {}
            self.cache.put(state.key, payload)
            self._terminal(
                report,
                JobOutcome(
                    key=state.key,
                    kind=state.spec.kind,
                    label=state.spec.label(),
                    status=STATUS_COMPUTED,
                    attempts=state.attempts,
                    seconds=outcome.seconds,
                    ok=bool(payload.get("ok", True)),
                    failures=list(state.failures),
                    reproducer=state.spec.reproducer(),
                    payload=payload,
                ),
                progress,
            )
            return

        detail = f"attempt {state.attempts}: [{outcome.status}] {outcome.detail}"
        state.failures.append(detail)
        if outcome.status == OUTCOME_TIMEOUT:
            report.timeouts += 1
        elif outcome.status == OUTCOME_CRASH:
            report.crashes += 1
        else:
            report.errors += 1
        if "injected hang" in outcome.detail:
            report.injected_hangs += 1
        elif "injected crash" in outcome.detail:
            report.injected_crashes += 1

        if state.attempts >= config.max_attempts:
            if session is not None:
                session.instant(
                    "fleet-quarantine",
                    category="fleet",
                    label=state.spec.label(),
                    attempts=state.attempts,
                )
            self._terminal(
                report,
                JobOutcome(
                    key=state.key,
                    kind=state.spec.kind,
                    label=state.spec.label(),
                    status=STATUS_QUARANTINED,
                    attempts=state.attempts,
                    seconds=outcome.seconds,
                    ok=False,
                    failures=list(state.failures),
                    reproducer=state.spec.reproducer(),
                ),
                progress,
            )
            return

        # Transient failure: back off and requeue.
        report.retries += 1
        if session is not None:
            session.count("fleet.retries")
        delay = min(
            config.backoff_cap, config.backoff_base * (2 ** (state.attempts - 1))
        )
        delay *= 1.0 + 0.25 * state.rng.random()
        state.not_before = _now() + delay
        pending.append(state)

    def _settle_cached(self, report, spec, key, payload, progress) -> None:
        self._terminal(
            report,
            JobOutcome(
                key=key,
                kind=spec.kind,
                label=spec.label(),
                status=STATUS_CACHED,
                attempts=0,
                ok=bool(payload.get("ok", True)),
                reproducer=spec.reproducer(),
                payload=payload,
            ),
            progress,
        )

    def _terminal(self, report, outcome: JobOutcome, progress) -> None:
        report.outcomes.append(outcome)
        session = current_session()
        if session is not None:
            session.count(f"fleet.{outcome.status}")
            session.instant(
                "fleet-job",
                category="fleet",
                label=outcome.label,
                status=outcome.status,
                attempts=outcome.attempts,
                ok=outcome.ok,
            )
        if progress is not None:
            progress(report, outcome)

    def _trace_path(self, state: _JobState) -> str | None:
        if self._trace_root is None:
            return None
        return str(
            self._trace_root / f"{state.key}.attempt{state.attempts}.trace.json"
        )

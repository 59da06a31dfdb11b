"""Fault-tolerant scenario fleet: supervised workers, crash-safe cache,
chaos campaigns at scale.

The fleet turns the repository's deterministic single-run harnesses
(:mod:`repro.sim.scenario`, :mod:`repro.sim.chaos`) into sweeps that
survive crashing, hanging and flaky cells:

* :mod:`repro.fleet.jobs` — job specs, encoded by their frozen dataclass
  fields alone, and the content-addressed :func:`job_key` (spec fields +
  engine + code version);
* :mod:`repro.fleet.cache` — the crash-safe :class:`ResultCache`
  (atomic write-rename, per-entry checksums, corrupt-entry eviction)
  that doubles as the resume checkpoint;
* :mod:`repro.fleet.pool` — the persistent warm-worker pool
  (:class:`WorkerPool`): long-lived processes that import once and loop
  pulling jobs over a duplex pipe, each holding its running job and the
  next one, with wall-clock timeouts, SIGTERM→SIGKILL escalation, and
  recycling on timeout or crash;
* :mod:`repro.fleet.dispatcher` — :class:`Fleet`: sharding, bounded
  retries with backoff + jitter, poisoned-job quarantine, graceful
  SIGINT shutdown, event-driven wakeup, self-hosted chaos at
  ``fleet.worker.crash``, and the in-process ``workers=0`` mode;
* :mod:`repro.fleet.report` — :class:`FleetReport`: terminal outcomes,
  chaos-campaign aggregation, failing-cell reproducers.
"""

from repro.fleet.cache import CacheStats, ResultCache
from repro.fleet.dispatcher import Fleet, FleetConfig, run_attempt_inline
from repro.fleet.jobs import (
    KEY_SCHEMA,
    ProbeSpec,
    canonical_json,
    chaos_grid,
    job_key,
    scenario_grid,
)
from repro.fleet.pool import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    AttemptOutcome,
    PoolWorker,
    WorkerPool,
    execute_job,
)
from repro.fleet.report import (
    STATUS_CACHED,
    STATUS_COMPUTED,
    STATUS_QUARANTINED,
    TERMINAL_STATUSES,
    FleetReport,
    JobOutcome,
)

__all__ = [
    "KEY_SCHEMA",
    "STATUS_CACHED",
    "STATUS_COMPUTED",
    "STATUS_QUARANTINED",
    "TERMINAL_STATUSES",
    "OUTCOME_OK",
    "OUTCOME_ERROR",
    "OUTCOME_CRASH",
    "OUTCOME_TIMEOUT",
    "AttemptOutcome",
    "CacheStats",
    "Fleet",
    "FleetConfig",
    "FleetReport",
    "JobOutcome",
    "PoolWorker",
    "ProbeSpec",
    "ResultCache",
    "WorkerPool",
    "canonical_json",
    "chaos_grid",
    "execute_job",
    "job_key",
    "run_attempt_inline",
    "scenario_grid",
]

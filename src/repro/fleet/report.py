"""Fleet-level reporting: per-cell outcomes, counters, chaos aggregation.

A :class:`FleetReport` is the verdict of one dispatch: every cell ends
**terminal** — ``cached`` (served from the result cache), ``computed``
(ran to completion this invocation) or ``quarantined`` (failed
``max_attempts`` times; reported with a one-line reproducer and never
allowed to wedge the fleet). Reports serialize to JSON
(``repro-fleet-report/1``) and aggregate chaos campaigns into a single
verdict table: cells, verifier failures, summed
:class:`~repro.inject.plan.ResilienceStats`, and a reproducer command for
every failing cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

REPORT_SCHEMA = "repro-fleet-report/1"

#: Terminal cell statuses.
STATUS_CACHED = "cached"
STATUS_COMPUTED = "computed"
STATUS_QUARANTINED = "quarantined"
TERMINAL_STATUSES = (STATUS_CACHED, STATUS_COMPUTED, STATUS_QUARANTINED)


@dataclass
class JobOutcome:
    """The terminal state of one cell."""

    key: str
    kind: str
    label: str
    status: str
    attempts: int = 0
    seconds: float = 0.0
    #: Payload-level verdict (e.g. the chaos verifier); quarantined cells
    #: have no payload and are never ok.
    ok: bool = True
    #: One line per failed attempt, in order (error / crash / timeout).
    failures: list[str] = field(default_factory=list)
    #: One-line command that reruns exactly this cell.
    reproducer: str = ""
    payload: dict | None = None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "label": self.label,
            "status": self.status,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 6),
            "ok": self.ok,
            "failures": list(self.failures),
            "reproducer": self.reproducer,
            "payload": self.payload,
        }


@dataclass
class FleetReport:
    """Everything one dispatch produced."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    engine: str = "vector"
    code_version: str = ""
    #: How attempts ran: ``inline`` (workers=0) or ``pooled`` (warm-worker
    #: pool).
    dispatch_mode: str = ""
    #: Pool mode only: worker processes killed and replaced (timeout,
    #: crash, or idle death).
    worker_recycles: int = 0
    #: Non-terminal bookkeeping: attempts beyond each cell's first.
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    #: Faults the fleet's own plan injected (site ``fleet.worker.crash``).
    injected_crashes: int = 0
    injected_hangs: int = 0
    #: Cache counters snapshot (hits/misses/stores/corrupt_evicted).
    cache: dict[str, int] = field(default_factory=dict)
    #: True when the dispatch stopped on SIGINT/KeyboardInterrupt; the
    #: completed cells are checkpointed in the cache regardless.
    interrupted: bool = False
    wall_seconds: float = 0.0

    # -- derived counters -----------------------------------------------------

    @property
    def jobs(self) -> int:
        return len(self.outcomes)

    def _count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def cached(self) -> int:
        return self._count(STATUS_CACHED)

    @property
    def computed(self) -> int:
        return self._count(STATUS_COMPUTED)

    @property
    def quarantined(self) -> int:
        return self._count(STATUS_QUARANTINED)

    def failing(self) -> list[JobOutcome]:
        """Cells that are quarantined or whose payload verdict is bad."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.interrupted and not self.failing()

    # -- chaos campaign aggregation -------------------------------------------

    def chaos_summary(self) -> dict:
        """Aggregate verdicts + resilience stats over the chaos cells.

        Sums the :class:`~repro.inject.plan.ResilienceStats`-shaped
        counters from every chaos payload and lists one reproducer per
        failing cell — the campaign's actionable output.
        """
        cells = [o for o in self.outcomes if o.kind == "chaos"]
        totals = {
            "faults_injected": 0,
            "retries": 0,
            "reclaim_rescues": 0,
            "degradations": 0,
            "recoveries": 0,
            "verify_violations": 0,
        }
        failing = []
        ok_cells = 0
        for cell in cells:
            payload = cell.payload or {}
            for name in totals:
                if name == "verify_violations":
                    totals[name] += len(payload.get("verify", {}).get("violations", []))
                else:
                    totals[name] += int(payload.get(name, 0))
            if cell.ok:
                ok_cells += 1
            else:
                failing.append(
                    {
                        "label": cell.label,
                        "status": cell.status,
                        "reproducer": cell.reproducer,
                    }
                )
        return {
            "cells": len(cells),
            "ok_cells": ok_cells,
            "failed_cells": failing,
            **totals,
        }

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "engine": self.engine,
            "code_version": self.code_version,
            "dispatch_mode": self.dispatch_mode,
            "worker_recycles": self.worker_recycles,
            "jobs": self.jobs,
            "cached": self.cached,
            "computed": self.computed,
            "quarantined": self.quarantined,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "errors": self.errors,
            "injected_crashes": self.injected_crashes,
            "injected_hangs": self.injected_hangs,
            "cache": dict(self.cache),
            "interrupted": self.interrupted,
            "wall_seconds": round(self.wall_seconds, 6),
            "chaos": self.chaos_summary(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Human-readable digest: counters, then every non-clean cell."""
        lines = [
            f"fleet report: {self.jobs} job(s) — {self.cached} cached, "
            f"{self.computed} computed, {self.quarantined} quarantined"
            + (f" [{self.dispatch_mode}]" if self.dispatch_mode else "")
            + (" [INTERRUPTED]" if self.interrupted else ""),
            f"  retries {self.retries}, timeouts {self.timeouts}, "
            f"crashes {self.crashes}, errors {self.errors}, "
            f"injected {self.injected_crashes} crash(es) / "
            f"{self.injected_hangs} hang(s), "
            f"{self.worker_recycles} worker recycle(s)",
            f"  cache: {self.cache.get('hits', 0)} hit(s), "
            f"{self.cache.get('misses', 0)} miss(es), "
            f"{self.cache.get('corrupt_evicted', 0)} corrupt entr(ies) evicted",
        ]
        chaos = self.chaos_summary()
        if chaos["cells"]:
            lines.append(
                f"  chaos: {chaos['ok_cells']}/{chaos['cells']} cell(s) ok, "
                f"{chaos['faults_injected']} fault(s) injected, "
                f"{chaos['recoveries']} recover(ies), "
                f"{chaos['verify_violations']} verifier violation(s)"
            )
        for outcome in self.failing():
            lines.append(f"  FAIL {outcome.label} [{outcome.status}]")
            for failure in outcome.failures:
                lines.append(f"       {failure}")
            if outcome.reproducer:
                lines.append(f"       reproduce: {outcome.reproducer}")
        return "\n".join(lines)

"""The counter-driven system-wide policy daemon (§6.1).

"Event-based triggers can be developed for page-table migration and
replication within the OS. For instance, the OS can obtain TLB miss rates
or cycles spent walking page-tables through performance counters ... and
then apply policy decisions automatically."

The paper leaves the automatic approach as future work; this daemon
implements it. It observes perf-counter-style snapshots (the simulator's
:class:`~repro.sim.metrics.RunMetrics` stands in for the PMU) and:

* **replicates** a multi-socket process once walk-cycle pressure crosses
  the trigger thresholds and the process has run long enough to amortise
  the copy (short-running processes are deliberately never touched);
* **migrates page-tables** when it notices a single-socket process whose
  page-tables live elsewhere (the post-OS-migration state of §3.2);
* **completes degraded masks**: a process whose replication had to shrink
  under memory pressure (see :mod:`repro.mitosis.degrade`) is retried with
  exponential backoff until the full mask is built — memory freed later
  turns a degraded process back into a fully replicated one.

Wire it to a run via ``EngineConfig.epoch_callback``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.process import Process
from repro.mitosis.degrade import enable_replication_resilient
from repro.mitosis.manager import MitosisManager
from repro.mitosis.replication import replica_sockets
from repro.sim.metrics import RunMetrics
from repro.trace.session import trace_complete, trace_instant


@dataclass
class DaemonDecision:
    """One action the daemon took."""

    epoch: int
    action: str  # "replicate" | "migrate-pt" | "complete-mask" | "retry-degraded"
    detail: str


@dataclass
class MitosisDaemon:
    """Watches one process' counters; acts through the policy manager."""

    manager: MitosisManager
    process: Process
    decisions: list[DaemonDecision] = field(default_factory=list)
    #: Upper bound on the degraded-retry backoff, in epochs.
    backoff_cap: int = 32

    def _record(self, decision: DaemonDecision) -> None:
        """Append a decision and mirror it onto the trace timeline."""
        self.decisions.append(decision)
        trace_instant(
            "daemon-decision",
            category="daemon",
            epoch=decision.epoch,
            action=decision.action,
            detail=decision.detail,
        )

    def observe(self, epoch: int, metrics: RunMetrics) -> bool:
        """Inspect counters after an epoch; returns True if it acted."""
        process = self.process
        mm = process.mm
        if mm.degraded is not None and epoch >= mm.degraded.next_retry_epoch:
            return self._retry_degraded(epoch)
        runtime = metrics.runtime_cycles
        walk_fraction = metrics.walk_cycle_fraction
        miss_rate = metrics.tlb_miss_rate

        sockets_running = process.sockets_in_use()
        if len(sockets_running) > 1:
            # Multi-socket process: replication candidate.
            if mm.replicated:
                return False
            if self.manager.auto_replicate(process, walk_fraction, miss_rate, runtime):
                self._record(
                    DaemonDecision(
                        epoch=epoch,
                        action="replicate",
                        detail=f"walk {walk_fraction:.0%}, miss {miss_rate:.0%} "
                        f"-> replicate on {sorted(sockets_running)}",
                    )
                )
                return True
            return False

        # Single-socket process: page-table migration candidate.
        (socket,) = sockets_running
        if not self.manager.trigger.should_replicate(walk_fraction, miss_rate, runtime):
            return False
        if socket in replica_sockets(mm.tree):
            return False  # page-tables already local
        result = self.manager.kernel_migrate_page_tables(process, socket)
        self._record(
            DaemonDecision(
                epoch=epoch,
                action="migrate-pt",
                detail=f"walk {walk_fraction:.0%} with remote page-tables "
                f"-> migrated {result.tables_copied} tables to socket {socket}",
            )
        )
        return True

    def _retry_degraded(self, epoch: int) -> bool:
        """Try to complete a degraded replication mask (§5.5 recovery).

        On success the :class:`~repro.mitosis.degrade.DegradedState` is
        cleared (and a recovery counted); on failure the backoff doubles,
        up to :attr:`backoff_cap` epochs.
        """
        mm = self.process.mm
        state = mm.degraded
        achieved = enable_replication_resilient(
            self.manager.kernel, self.process, state.requested_mask
        )
        if mm.degraded is None:
            self._record(
                DaemonDecision(
                    epoch=epoch,
                    action="complete-mask",
                    detail=f"degraded mask completed after {state.retries + 1} "
                    f"attempt(s): now on {sorted(achieved)}",
                )
            )
            return True
        delay = state.backoff
        mm.degraded.retries = state.retries + 1
        mm.degraded.backoff = min(delay * 2, self.backoff_cap)
        mm.degraded.next_retry_epoch = epoch + delay
        self._record(
            DaemonDecision(
                epoch=epoch,
                action="retry-degraded",
                detail=f"still missing {sorted(mm.degraded.missing)}; "
                f"backing off to epoch {mm.degraded.next_retry_epoch}",
            )
        )
        # The backoff window as a span: its extent on the timeline is the
        # epochs the daemon will stay quiet for.
        trace_complete(
            "daemon.backoff",
            category="daemon",
            dur=float(delay),
            epoch=epoch,
            until_epoch=mm.degraded.next_retry_epoch,
            missing=sorted(mm.degraded.missing),
        )
        return True

    def callback(self):
        """Adapter for ``EngineConfig.epoch_callback``."""
        return lambda epoch, metrics: self.observe(epoch, metrics)

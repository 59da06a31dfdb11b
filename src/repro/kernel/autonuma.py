"""AutoNUMA: hint-fault driven data-page migration.

Linux's AutoNUMA samples page accesses through NUMA hint faults and
migrates data pages towards the socket that touches them. The simulator's
engine reports sampled accesses here; :meth:`AutoNuma.balance` then moves
pages whose accesses are dominated by a different socket. Page-table pages
are never candidates — reproducing the paper's observation 4 in §3.1
("data pages being migrated with AutoNUMA, page-table pages were never
migrated").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.kernel.costs import WorkCounters
from repro.kernel.migrate import migrate_mapped_page
from repro.kernel.process import Process
from repro.mem.physmem import PhysicalMemory
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE


@dataclass
class AutoNumaStats:
    pages_migrated: int = 0
    balance_passes: int = 0


@dataclass
class AutoNuma:
    """Per-kernel AutoNUMA daemon state."""

    physmem: PhysicalMemory
    #: Minimum fraction of sampled accesses from one socket before a page
    #: is migrated to it.
    majority_threshold: float = 0.6
    #: Migration rate limit per balance pass (Linux rate-limits NUMA
    #: balancing to bound its copy cost; so do we).
    max_migrations_per_pass: int = 64
    stats: AutoNumaStats = field(default_factory=AutoNumaStats)
    _hints: dict[tuple[int, int], Counter] = field(default_factory=dict)

    def record_access(self, process: Process, va: int, socket: int) -> None:
        """One sampled (hint-faulted) access from ``socket``."""
        hit = process.mm.frame_at(va)
        if hit is None:
            return
        key = (process.pid, hit[0])
        counter = self._hints.get(key)
        if counter is None:
            counter = self._hints[key] = Counter()
        counter[socket] += 1

    def balance(self, process: Process) -> WorkCounters:
        """Migrate this process' data pages toward their accessing sockets;
        returns the copy work done (the engine charges its cycles)."""
        self.stats.balance_passes += 1
        work = WorkCounters()
        mm = process.mm
        migrated = 0
        for (pid, va), counter in list(self._hints.items()):
            if migrated >= self.max_migrations_per_pass:
                break
            if pid != process.pid or not counter:
                continue
            if va not in mm.frames:
                del self._hints[(pid, va)]
                continue
            socket, hits = counter.most_common(1)[0]
            if hits / sum(counter.values()) < self.majority_threshold:
                continue
            copied_before = work.pages_copied
            if migrate_mapped_page(self.physmem, mm, va, socket, work):
                self.stats.pages_migrated += work.pages_copied - copied_before
                migrated += 1
            counter.clear()
        return work

    def forget(self, process: Process) -> None:
        """Drop sampling state for a process (exit/teardown)."""
        for key in [k for k in self._hints if k[0] == process.pid]:
            del self._hints[key]

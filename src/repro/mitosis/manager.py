"""The per-kernel Mitosis manager: the user-facing policy API.

This is the simulator's ``libnuma`` extension (Listing 2):
``numa_set_pgtable_replication_mask`` sets a per-process socket mask, an
empty mask restores native behaviour, and an auto mode applies the §6.1
trigger from measured TLB-pressure counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReplicationError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.kernel.sysctl import MitosisMode
from repro.mitosis.migration import PtMigrationResult, migrate_process_with_pagetables
from repro.mitosis.policy import ReplicationTrigger, parse_socket_list
from repro.mitosis.replication import collapse_replicas


@dataclass
class MitosisManager:
    """Policy front-end bound to one kernel."""

    kernel: Kernel
    trigger: ReplicationTrigger = field(default_factory=ReplicationTrigger)

    def set_replication_mask(
        self,
        process: Process,
        mask: frozenset[int] | str | None,
    ) -> None:
        """Set (or clear) the page-table replication mask of a process.

        ``mask`` may be a socket set, a ``numactl`` list string, or
        ``None``/empty to restore default behaviour.

        All validation happens up front — an invalid mask (unknown socket,
        Mitosis disabled) never mutates the tree, on either the set or the
        clear path.

        A per-socket allocation failure *degrades* the request to the
        satisfiable socket subset (recording a
        :class:`~repro.mitosis.degrade.DegradedState` on the mm for the
        daemon to complete later).
        """
        if isinstance(mask, str):
            mask = parse_socket_list(mask)
        mask = frozenset(mask) if mask else None
        if mask:
            if self.kernel.sysctl.mitosis_mode is MitosisMode.OFF:
                raise ReplicationError("Mitosis is disabled system-wide (sysctl)")
            for socket in sorted(mask):
                self.kernel.machine.socket(socket)  # raises TopologyError
        mm = process.mm
        if not mask:
            if mm.replicated:
                # Collapse onto the socket the process runs on (collapse
                # gap-fills if no copy lives there yet).
                collapse_replicas(mm.tree, self.kernel.pagecache, process.home_socket)
                mm.replication_mask = None
                self.kernel.shootdown.flush_all(self.kernel.cpu_contexts)
            mm.degraded = None
            return
        from repro.mitosis.degrade import enable_replication_resilient

        enable_replication_resilient(self.kernel, process, mask)

    # Listing 2 naming, for people arriving from the paper.
    numa_set_pgtable_replication_mask = set_replication_mask

    def get_replication_mask(self, process: Process) -> frozenset[int] | None:
        """The mask a process currently runs with (``None`` -> native)."""
        return process.mm.replication_mask

    def replicate_on_all_sockets(self, process: Process) -> None:
        """Convenience: replicate on every socket of the machine."""
        self.set_replication_mask(process, frozenset(self.kernel.machine.node_ids()))

    def replicate_where_running(self, process: Process) -> None:
        """Replicate on exactly the sockets the process has threads on —
        the sensible default for multi-socket workloads (§4.1)."""
        self.set_replication_mask(process, process.sockets_in_use())

    def migrate_process(
        self,
        process: Process,
        target_socket: int,
        migrate_data: bool = True,
        free_origin: bool = True,
    ) -> PtMigrationResult:
        """Mitosis-aware process migration: threads, data *and* page-tables
        move (Fig. 7 (b)(iii))."""
        return migrate_process_with_pagetables(
            self.kernel,
            process,
            target_socket,
            migrate_data=migrate_data,
            free_origin=free_origin,
        )

    def kernel_migrate_page_tables(self, process: Process, target_socket: int):
        """Migrate only the page-tables (threads/data untouched) — what the
        §6.1 daemon does when it finds a process stranded away from its
        page-tables."""
        from repro.mitosis.migration import migrate_page_tables

        return migrate_page_tables(self.kernel, process, target_socket)

    def auto_replicate(
        self,
        process: Process,
        walk_cycle_fraction: float,
        tlb_miss_rate: float,
        runtime_cycles: float,
    ) -> bool:
        """Apply the §6.1 event-based trigger from measured counters.

        Returns True when replication was (newly) enabled.
        """
        if process.mm.replicated:
            return False
        if not self.trigger.should_replicate(walk_cycle_fraction, tlb_miss_rate, runtime_cycles):
            return False
        self.replicate_where_running(process)
        return True

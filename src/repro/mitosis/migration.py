"""Page-table migration (§5.5): replication does the heavy lifting.

"We use Mitosis to replicate the page-table on the socket to which the
process has been migrated. The first replica can be eagerly freed after
migration, or alternatively kept up-to-date in the case the process gets
migrated back and lazily deallocated in case physical memory is becoming
scarce."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.mitosis.replication import (
    collapse_replicas,
    enable_replication,
    replica_sockets,
)
from repro.trace.session import trace_span


@dataclass(frozen=True)
class PtMigrationResult:
    """What a page-table migration did."""

    target_socket: int
    tables_copied: int
    origin_freed: bool
    cycles: float


def migrate_page_tables(
    kernel: Kernel,
    process: Process,
    target_socket: int,
    free_origin: bool = True,
) -> PtMigrationResult:
    """Move ``process``' page-tables to ``target_socket``.

    Args:
        kernel: The owning kernel (supplies the page-caches and shootdown).
        process: Whose page-tables to migrate.
        target_socket: Destination socket.
        free_origin: Eagerly free the origin copies (default). ``False``
            keeps them consistent for a cheap migration back (lazy mode).

    Returns the work done; the process ends with a local page-table on the
    target socket either way.
    """
    with trace_span(
        "migrate-pt",
        category="mitosis",
        target_socket=target_socket,
        free_origin=free_origin,
    ) as span:
        kernel.machine.socket(target_socket)
        mm = process.mm
        tree = mm.tree
        before = tree.ops.stats.snapshot()
        already = replica_sockets(tree)

        enable_replication(tree, kernel.pagecache, frozenset({target_socket}) | (already if not free_origin else frozenset()))
        if free_origin:
            collapse_replicas(tree, kernel.pagecache, target_socket)
            mm.replication_mask = None
        else:
            mm.replication_mask = frozenset({target_socket}) | already
        shoot = kernel.shootdown.flush_all(kernel.cpu_contexts)
        delta = tree.ops.stats.delta(before)

        from repro.kernel.costs import WorkCounters, syscall_cycles

        result = PtMigrationResult(
            target_socket=target_socket,
            tables_copied=delta.tables_allocated,
            origin_freed=free_origin,
            cycles=syscall_cycles(delta, WorkCounters(), shoot),
        )
        span.set(tables_copied=result.tables_copied, cycles=round(result.cycles, 1))
    return result


def migrate_process_with_pagetables(
    kernel: Kernel,
    process: Process,
    target_socket: int,
    migrate_data: bool = True,
    free_origin: bool = True,
) -> PtMigrationResult:
    """The full Mitosis migration story: threads + data + page-tables all
    move to ``target_socket`` (Fig. 7 (b)(iii))."""
    kernel.sys_migrate_process(process, target_socket, migrate_data=migrate_data)
    return migrate_page_tables(kernel, process, target_socket, free_origin=free_origin)

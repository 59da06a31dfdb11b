"""Replica reclamation under memory pressure (§5.5).

Lazily-kept page-table replicas trade memory for a cheap migration back;
when a node runs short, they are the first thing to give back. The
reclaimer frees, in order of ascending usefulness:

1. replicas on sockets the process has no thread on (pure insurance),
2. replicas on sockets it *is* running on (performance-bearing; only under
   ``aggressive=True``).

Primary copies are never reclaimed — a process always keeps one page-table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.kernel import Kernel
from repro.mitosis.replication import replica_sockets, shrink_replication


@dataclass
class ReclaimReport:
    tables_freed: int = 0
    processes_shrunk: list[int] = field(default_factory=list)


def reclaim_replicas(
    kernel: Kernel,
    node: int,
    target_free_frames: int,
    aggressive: bool = False,
) -> ReclaimReport:
    """Free page-table replicas on ``node`` until it has at least
    ``target_free_frames`` free (or nothing reclaimable remains)."""
    kernel.machine.validate_node(node)
    report = ReclaimReport()

    def satisfied() -> bool:
        return kernel.physmem.stats(node).free_frames >= target_free_frames

    for pass_aggressive in (False, True) if aggressive else (False,):
        if satisfied():
            break
        for process in list(kernel.processes.values()):
            if satisfied():
                break
            mm = process.mm
            if not mm.replicated:
                continue
            copies = replica_sockets(mm.tree)
            if node not in copies or mm.tree.root.node == node:
                continue
            in_use = node in process.sockets_in_use()
            if in_use and not pass_aggressive:
                continue
            # lint: allow[TLBGEN002] -- freed == 0 means no table was dropped, so no translation went stale
            freed = shrink_replication(mm.tree, kernel.pagecache, frozenset({node}))
            if freed:
                report.tables_freed += freed
                report.processes_shrunk.append(process.pid)
                mm.replication_mask = replica_sockets(mm.tree)
                if len(mm.replication_mask) == 1:
                    mm.replication_mask = None
                kernel.shootdown.flush_all(kernel.cpu_contexts)
    # Page-cache reserves on this node are insurance too.
    if not satisfied():
        report.tables_freed += kernel.pagecache.drain(node)
    return report

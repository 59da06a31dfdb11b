"""Placement timelines — the §3.1 snapshot *stream*.

The paper's kernel module dumps the page-table "every 30 seconds while a
multi-socket workload ran, producing a stream of page-table snapshots over
time", from which it draws observation 4: "While we observed data pages
being migrated with AutoNUMA, page-table pages were never migrated."

:class:`PlacementTimeline` collects the same stream from a simulated run
(hook it to ``EngineConfig.epoch_callback``) and quantifies both halves of
that observation: how many data pages changed NUMA node between snapshots,
and how many page-table pages did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import render_table
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process


@dataclass(frozen=True)
class TimelinePoint:
    """One snapshot of a process' placement."""

    epoch: int
    #: leaf VA -> node of the backing data frame.
    data_nodes: dict[int, int]
    #: page-table pfn -> node (all copies).
    pt_nodes: dict[int, int]
    #: Remote-leaf-PTE fraction per observer socket (Fig. 4 metric).
    remote_leaf: dict[int, float]

    def data_distribution(self, n_sockets: int) -> list[int]:
        counts = [0] * n_sockets
        for node in self.data_nodes.values():
            counts[node] += 1
        return counts

    def pt_distribution(self, n_sockets: int) -> list[int]:
        counts = [0] * n_sockets
        for node in self.pt_nodes.values():
            counts[node] += 1
        return counts


@dataclass
class PlacementTimeline:
    """Collects placement snapshots across a run."""

    kernel: Kernel
    process: Process
    points: list[TimelinePoint] = field(default_factory=list)

    def snapshot(self, epoch: int) -> TimelinePoint:
        """Record one snapshot (the 30-second kernel-module tick)."""
        from repro.paging.dump import remote_leaf_fractions

        mm = self.process.mm
        data_nodes = {va: frame.node for va, frame in mm.frames.items()}
        pt_nodes = {pfn: page.node for pfn, page in mm.tree.registry.items()}
        remote = remote_leaf_fractions(mm.tree, self.kernel.machine.n_sockets)
        point = TimelinePoint(
            epoch=epoch, data_nodes=data_nodes, pt_nodes=pt_nodes, remote_leaf=remote
        )
        self.points.append(point)
        return point

    def callback(self):
        """Adapter for ``EngineConfig.epoch_callback``."""
        return lambda epoch, _metrics: self.snapshot(epoch)

    # -- analysis over the stream -------------------------------------------------

    def data_pages_migrated(self) -> int:
        """Data pages whose NUMA node changed between any two consecutive
        snapshots (AutoNUMA's work)."""
        moved = 0
        for before, after in zip(self.points, self.points[1:]):
            for va, node in after.data_nodes.items():
                old = before.data_nodes.get(va)
                if old is not None and old != node:
                    moved += 1
        return moved

    def pt_pages_migrated(self) -> int:
        """Page-table pages whose node changed between snapshots. A page
        'moves' only if the same table ends up elsewhere; newly created or
        freed tables (growth, replication) do not count."""
        moved = 0
        for before, after in zip(self.points, self.points[1:]):
            for pfn, node in after.pt_nodes.items():
                old = before.pt_nodes.get(pfn)
                if old is not None and old != node:
                    moved += 1
        return moved

    def render(self) -> str:
        """The stream as a table: placement per snapshot plus movement."""
        n = self.kernel.machine.n_sockets
        headers = ["epoch"] + [f"data@s{s}" for s in range(n)] + [f"pt@s{s}" for s in range(n)]
        rows = [
            [point.epoch, *point.data_distribution(n), *point.pt_distribution(n)]
            for point in self.points
        ]
        summary = (
            f"\ndata pages migrated: {self.data_pages_migrated()}, "
            f"page-table pages migrated: {self.pt_pages_migrated()}"
        )
        return render_table(headers, rows) + summary

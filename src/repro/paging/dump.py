"""Page-table snapshotting — the paper's §3 "kernel module".

The analysis sections of the paper are built on a kernel module that walks a
process' page-table and dumps, for every level and socket: how many table
pages live there and where their valid PTEs point. Fig. 3 is one rendered
snapshot; Fig. 4 aggregates the leaf rows. :func:`dump_tree` produces the
same information from a live :class:`~repro.paging.pagetable.PageTableTree`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.mem.physmem import PhysicalMemory
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import PageTablePage, PageTableTree
from repro.paging.pte import _PFN_MASK, PTE_HUGE, PTE_PRESENT


@dataclass
class LevelSocketCell:
    """One (level, socket) cell of the Fig. 3 matrix."""

    level: int
    socket: int
    #: Table pages of this level residing on this socket.
    pages: int = 0
    #: Valid PTEs in those pages, bucketed by the socket their target
    #: (child table or data frame) resides on.
    pointers_to: list[int] = field(default_factory=list)
    #: Subset of :attr:`pointers_to` that map data directly (L1 entries and
    #: 2 MiB leaves at L2), bucketed the same way.
    leaf_pointers_to: list[int] = field(default_factory=list)

    @property
    def valid_ptes(self) -> int:
        return sum(self.pointers_to)

    @property
    def remote_fraction(self) -> float:
        """Fraction of valid PTEs pointing off-socket (the paper's
        rounded-bracket percentage)."""
        total = self.valid_ptes
        if total == 0:
            return 0.0
        remote = total - self.pointers_to[self.socket]
        return remote / total


@dataclass
class PageTableDump:
    """A processed snapshot of one page-table (replica)."""

    n_sockets: int
    root_pfn: int
    #: level -> per-socket cells (index == socket id).
    cells: dict[int, list[LevelSocketCell]]

    def cell(self, level: int, socket: int) -> LevelSocketCell:
        return self.cells[level][socket]

    def leaf_pointer_distribution(self) -> list[int]:
        """Valid leaf PTEs bucketed by the socket of the *data* they map."""
        totals = [0] * self.n_sockets
        for cells in self.cells.values():
            for cell in cells:
                for target, count in enumerate(cell.leaf_pointers_to):
                    totals[target] += count
        return totals

    def leaf_pte_location_distribution(self) -> list[int]:
        """Valid leaf PTEs bucketed by the socket of the *PTE itself*.

        This is what determines walk locality: a thread on socket *s*
        resolves a TLB miss from a leaf PTE on whatever socket holds the L1
        page — and Fig. 4 plots exactly the fraction on sockets != s.

        With THP there may be no L1 at all; 2 MiB leaves at L2 count the
        same way (a leaf PTE is whatever entry maps data).
        """
        totals = [0] * self.n_sockets
        for cells in self.cells.values():
            for cell in cells:
                totals[cell.socket] += sum(cell.leaf_pointers_to)
        return totals

    def remote_leaf_fraction(self, observer_socket: int) -> float:
        """Fraction of leaf PTEs a thread on ``observer_socket`` would have
        to fetch from a remote socket on a TLB miss (Fig. 1 top, Fig. 4)."""
        per_socket = self.leaf_pte_location_distribution()
        total = sum(per_socket)
        if total == 0:
            return 0.0
        return (total - per_socket[observer_socket]) / total

    def render(self) -> str:
        """Render in the style of Fig. 3."""
        lines = []
        header = "Level | " + " | ".join(
            f"{'Socket ' + str(s):^24}" for s in range(self.n_sockets)
        )
        lines.append(header)
        leaf_first = sorted(self.cells, reverse=True)
        for level in leaf_first:
            row = [f"L{level:<4} "]
            for cell in self.cells[level]:
                pointers = " ".join(_fmt_count(c) for c in cell.pointers_to)
                row.append(
                    f" {_fmt_count(cell.pages):>5} [{pointers}] ({cell.remote_fraction:4.0%})"
                )
            lines.append("|".join(row))
        return "\n".join(lines)


def _fmt_count(count: int) -> str:
    if count >= 10_000_000:
        return f"{count / 1_000_000:.0f}M"
    if count >= 10_000:
        return f"{count / 1000:.0f}k"
    return str(count)


def dump_tree(
    tree: PageTableTree,
    physmem: PhysicalMemory,
    n_sockets: int,
    socket: int | None = None,
) -> PageTableDump:
    """Snapshot the page-table as seen by a walker on ``socket``.

    With ``socket=None`` the primary copy is dumped (native behaviour);
    otherwise the walk starts from that socket's CR3 value, so a replicated
    tree shows that socket's replica — which is how one verifies that
    Mitosis made every level local.
    """
    if socket is None:
        root = tree.root
    else:
        root = tree.registry[tree.ops.root_pfn_for_socket(tree, socket)]
    cells: dict[int, list[LevelSocketCell]] = {}

    def cell_for(level: int, node: int) -> LevelSocketCell:
        if level not in cells:
            cells[level] = [
                LevelSocketCell(
                    level=level,
                    socket=s,
                    pointers_to=[0] * n_sockets,
                    leaf_pointers_to=[0] * n_sockets,
                )
                for s in range(n_sockets)
            ]
        return cells[level][node]

    registry = tree.registry
    queue: deque[PageTablePage] = deque([root])
    while queue:
        page = queue.popleft()
        cell = cell_for(page.level, page.node)
        cell.pages += 1
        entries = np.array(page.entries, dtype=np.uint64)
        present = entries[(entries & PTE_PRESENT).astype(bool)]
        if page.level == LEAF_LEVEL:
            leaves = present
        else:
            huge = (present & PTE_HUGE).astype(bool)
            leaves = present[huge]
            for target_pfn in ((present[~huge] & _PFN_MASK) >> 12).tolist():
                child = registry[target_pfn]
                cell.pointers_to[child.node] += 1
                queue.append(child)
        if leaves.size:
            nodes = physmem.nodes_of_pfns(((leaves & _PFN_MASK) >> 12).astype(np.int64))
            counts = np.bincount(nodes, minlength=n_sockets).tolist()
            for target_node, count in enumerate(counts):
                if count:
                    cell.leaf_pointers_to[target_node] += count
                    cell.pointers_to[target_node] += count
    return PageTableDump(n_sockets=n_sockets, root_pfn=root.pfn, cells=cells)


def remote_leaf_fractions(tree: PageTableTree, n_sockets: int) -> dict[int, float]:
    """The remote-leaf-PTE fraction a walker on each socket sees from its
    own CR3 (Fig. 1 top, Fig. 4), without building a Fig. 3 dump.

    Equal, socket by socket, to ``dump_tree(tree, physmem, n_sockets,
    socket=s).remote_leaf_fraction(s)``: the same leaf counts per node of
    the table page holding them, and the same ``(total - local) /
    total``. Sockets that load the same CR3 walk the same tree, so each
    distinct root is walked once (one root for every socket without
    replication).
    """
    per_root: dict[int, list[int]] = {}
    fractions = {}
    for socket in range(n_sockets):
        root = tree.ops.root_pfn_for_socket(tree, socket)
        counts = per_root.get(root)
        if counts is None:
            counts = per_root[root] = _leaf_entries_per_node(tree.registry, root, n_sockets)
        total = sum(counts)
        fractions[socket] = (total - counts[socket]) / total if total else 0.0
    return fractions


def _leaf_entries_per_node(
    registry: dict[int, PageTablePage], root_pfn: int, n_sockets: int
) -> list[int]:
    """Leaf entries reachable from ``root_pfn``, counted per node of the
    table page that holds them: every present level-1 entry (the table's
    ``valid_count``) and every present huge entry above level 1."""
    counts = [0] * n_sockets
    stack = [registry[root_pfn]]
    while stack:
        page = stack.pop()
        if page.level == LEAF_LEVEL:
            counts[page.node] += page.valid_count
            continue
        for entry in filter(None, page.entries):
            if entry & PTE_PRESENT:
                if entry & PTE_HUGE:
                    counts[page.node] += 1
                else:
                    stack.append(registry[(entry & _PFN_MASK) >> 12])
    return counts

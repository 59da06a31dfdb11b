"""The Mitosis PV-Ops backend (§5.2): eager, semantic replication.

Every page-table mutation arriving through the PV-Ops interface is
propagated to all replicas *while still inside the page-table lock's
critical section*, preserving native consistency guarantees (§7.5).

Replication is **semantic**, not bytewise (§2.3): a leaf PTE holds the same
data-frame pointer in every replica, but an upper-level PTE must point at
*that replica's own* copy of the lower-level table — the pointers differ
between replicas everywhere except the leaf level.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import OutOfMemoryError, ReplicationError
from repro.mem.frame import Frame
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.accessed_dirty import clear_ad_everywhere, read_entry_or_ad
from repro.mitosis.ring import link_ring, local_copy, ring_members, unlink_ring
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import (
    PageTablePage,
    PageTableTree,
    PagingOps,
    occupied_slots,
    present_runs,
)
from repro.paging.pte import (
    PTE_HUGE,
    PTE_PRESENT,
    make_pte,
    pte_flags,
    pte_huge,
    pte_pfn,
    pte_present,
)
from repro.trace.session import trace_count, trace_instant


class MitosisPagingOps(PagingOps):
    """Replicating backend: one page-table copy per socket in the mask."""

    def __init__(self, pagecache: PageTablePageCache, mask: frozenset[int]):
        super().__init__()
        if not mask:
            raise ReplicationError("replication mask must name at least one socket")
        self.pagecache = pagecache
        #: Sockets that hold a replica.
        self.mask = frozenset(mask)

    # -- allocation -----------------------------------------------------------

    def alloc_table(
        self,
        tree: PageTableTree,
        level: int,
        node_hint: int,
        primary: PageTablePage | None = None,
        take: Callable[[int], Frame] | None = None,
    ) -> PageTablePage:
        """Build one table's copies on every socket in the mask; returns
        its primary.

        A new table (``primary`` is ``None``) gets one copy per masked
        socket, ring-linked; the primary is the copy on the lowest socket
        (deterministic; the tree's walk logic uses it, hardware never
        does). An existing table, given by its ``primary``, gets the
        copies its ring lacks, filled from the primary. Either way every
        copy's upper-level entries, old copies included, then point at
        the child's :func:`~repro.mitosis.ring.local_copy`, so callers
        extending a whole tree go children first.

        Frames come from ``take(socket)``, the page-cache by default. If
        it raises :class:`OutOfMemoryError`, the frames already taken go
        back to the page-cache and the ring is left as it was.
        """
        take = take or self.pagecache.alloc
        members = [] if primary is None else ring_members(tree, primary)
        have = {member.node for member in members}
        frames: list[Frame] = []
        try:
            for socket in sorted(self.mask - have):
                frames.append(take(socket))
        except OutOfMemoryError:
            for frame in frames:
                self.pagecache.free(frame)
            raise
        new_table = primary is None
        fresh: list[PageTablePage] = []
        for frame in frames:
            copy = PageTablePage(frame=frame, level=level, primary=primary)
            if primary is None:
                primary = copy  # a new table's copy on the lowest socket
            tree.registry[copy.pfn] = copy
            fresh.append(copy)
        self.stats.tables_allocated += len(fresh)
        members += fresh
        link_ring(members)
        if primary.valid_count:
            self._fill(tree, primary, members, fresh)
        if new_table:
            trace_instant(
                "replicate-table",
                category="mitosis",
                level=level,
                sockets=sorted(self.mask),
                copies=len(fresh),
            )
        return primary

    def _fill(
        self,
        tree: PageTableTree,
        primary: PageTablePage,
        members: list[PageTablePage],
        fresh: list[PageTablePage],
    ) -> None:
        """Copy ``primary``'s entries into the ``fresh`` copies and point
        every member's table entries at the child's local copy. A leaf
        table's runs of present entries go to each copy as one run store;
        an upper-level table's present entries are visited in slot order,
        skipping empty slots."""
        entries = primary.entries
        if primary.level == LEAF_LEVEL:
            for first, last in present_runs(entries, 0, len(entries)):
                values = entries[first:last]
                for member in fresh:
                    self.apply_entry_run(member, first, values)
                self.stats.pte_writes += len(fresh) * len(values)
            return
        apply = self.apply_entry_write
        for index in occupied_slots(entries):
            entry = entries[index]
            if not entry & PTE_PRESENT:
                continue
            if entry & PTE_HUGE:
                for member in fresh:
                    apply(member, index, entry)
                self.stats.pte_writes += len(fresh)
                continue
            child_ring = ring_members(tree, tree.registry[pte_pfn(entry)])
            flags = pte_flags(entry)
            for member in members:
                value = make_pte(local_copy(child_ring, member.node).pfn, flags)
                if member.entries[index] != value:
                    apply(member, index, value)
                    self.stats.pte_writes += 1

    def remove_copies(
        self,
        tree: PageTableTree,
        rings: list[list[PageTablePage]],
        doomed: list[PageTablePage],
    ) -> tuple[int, int]:
        """Take the ``doomed`` copies out of ``rings`` and free them, the
        inverse of :meth:`alloc_table`; returns ``(freed, repointed)``.

        Each ring in ``rings`` is given primary first. A ring that loses
        its primary promotes its first survivor (``tree.root`` follows).
        Surviving upper-level copies that point at a doomed child are
        repointed at the child's :func:`~repro.mitosis.ring.local_copy`
        among its survivors. Every ring is relinked from its survivors,
        and one left with a single copy is unlinked. The doomed copies
        are then unregistered and freed in the order given. Counters are
        the caller's to keep.
        """
        gone = {page.pfn for page in doomed}
        kept: list[list[PageTablePage]] = []
        survivors: dict[int, list[PageTablePage]] = {}  # doomed pfn -> its ring's survivors
        for members in rings:
            keep = [member for member in members if member.pfn not in gone]
            kept.append(keep)
            if not keep or len(keep) == len(members):
                continue
            survivors.update((member.pfn, keep) for member in members if member.pfn in gone)
            head = keep[0]
            if head.primary is not None and head.primary.pfn in gone:
                if tree.root is head.primary:
                    tree.root = head
                head.primary = None
                for member in keep[1:]:
                    member.primary = head
        repointed = 0
        # Nothing points into a ring torn down whole, so teardown skips the scan.
        for keep in kept if survivors else ():
            if not keep or keep[0].level == LEAF_LEVEL:
                continue
            for member in keep:
                entries = member.entries
                for index in occupied_slots(entries):
                    entry = entries[index]
                    if entry & (PTE_PRESENT | PTE_HUGE) != PTE_PRESENT:
                        continue
                    child_ring = survivors.get(pte_pfn(entry))
                    if child_ring is not None:
                        child = local_copy(child_ring, member.node)
                        value = make_pte(child.pfn, pte_flags(entry))
                        self.apply_entry_write(member, index, value)
                        repointed += 1
        for members, keep in zip(rings, kept):
            unlink_ring(members)
            if len(keep) > 1:
                link_ring(keep)
        for page in doomed:
            del tree.registry[page.pfn]
            self.pagecache.free(page.frame)
        return len(doomed), repointed

    def release_table(self, tree: PageTableTree, page: PageTablePage) -> None:
        """Free the whole replica ring of ``page``."""
        members = ring_members(tree, page)
        self.stats.ring_hops += len(members)
        freed, _ = self.remove_copies(tree, [members], members)
        self.stats.tables_released += freed
        trace_instant("teardown-table", category="mitosis", level=page.level, copies=len(members))

    # -- updates ---------------------------------------------------------------

    def set_pte(self, tree: PageTableTree, page: PageTablePage, index: int, value: int) -> None:
        """Eagerly propagate one PTE write to every replica.

        Costs 2N memory references for N replicas: N ring-pointer reads and
        N entry writes (the Fig. 8 optimisation over walking each replica
        tree, which would cost 4N).
        """
        self.set_pte_run(tree, page, index, [value])

    def set_pte_run(
        self, tree: PageTableTree, page: PageTablePage, start_index: int, values: list[int]
    ) -> None:
        """Eagerly propagate consecutive PTE writes to every replica.

        The ring is resolved once per run; the accounting stays per PTE
        (N ring hops and N entry writes each), as if each were one
        :meth:`set_pte`.
        """
        members = ring_members(tree, page)
        copies = len(members)
        writes = copies * len(values)
        self.stats.ring_hops += writes
        upper = page.level > LEAF_LEVEL
        apply = self.apply_entry_write
        for offset, value in enumerate(values):
            index = start_index + offset
            child_ring: list[PageTablePage] | None = None
            if upper and pte_present(value) and not pte_huge(value):
                child = tree.registry.get(pte_pfn(value))
                if child is not None:
                    child_ring = ring_members(tree, child)
            for member in members:
                member_value = value
                if child_ring is not None:
                    local_child = local_copy(child_ring, member.node)
                    member_value = make_pte(local_child.pfn, pte_flags(value))
                apply(member, index, member_value)
        self.stats.pte_writes += writes
        # The eager-propagation hot path: counters only, no event objects
        # (see docs/observability.md on event volume).
        trace_count("mitosis.set_pte", float(len(values)))
        trace_count("mitosis.set_pte_replica_writes", float(writes))

    def read_pte(self, tree: PageTableTree, page: PageTablePage, index: int) -> int:
        """OS-visible read: first copy's entry with all replicas' A/D bits
        ORed in (§5.4's added PV-Ops get function)."""
        members = ring_members(tree, page)
        self.stats.ring_hops += len(members)
        self.stats.pte_reads += len(members)
        return read_entry_or_ad(tree, members, index)

    def clear_ad_bits(self, tree: PageTableTree, page: PageTablePage, index: int) -> None:
        members = ring_members(tree, page)
        self.stats.ring_hops += len(members)
        self.stats.pte_writes += len(members)
        clear_ad_everywhere(tree, members, index)

    # -- scheduling -------------------------------------------------------------

    def root_pfn_for_socket(self, tree: PageTableTree, socket: int) -> int:
        """§5.3: the per-socket CR3 array — local replica root when the
        socket has one, the primary root otherwise."""
        return local_copy(ring_members(tree, tree.root), socket).pfn

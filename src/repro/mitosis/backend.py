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

from repro.errors import ReplicationError
from repro.kernel.policy import FirstTouchPolicy, PlacementPolicy
from repro.mem.frame import FrameKind
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.accessed_dirty import clear_ad_everywhere, read_entry_or_ad
from repro.mitosis.ring import link_ring, replica_on_socket, ring_members, unlink_ring
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import PageTablePage, PageTableTree, PagingOps
from repro.paging.pte import make_pte, pte_flags, pte_huge, pte_pfn, pte_present
from repro.trace.session import current_session


class MitosisPagingOps(PagingOps):
    """Replicating backend: one page-table copy per socket in the mask."""

    def __init__(
        self,
        pagecache: PageTablePageCache,
        mask: frozenset[int],
        pt_policy: PlacementPolicy | None = None,
    ):
        super().__init__()
        if not mask:
            raise ReplicationError("replication mask must name at least one socket")
        self.pagecache = pagecache
        #: Sockets that hold a replica.
        self.mask = frozenset(mask)
        #: Placement for the primary copy when its socket is outside the
        #: mask (only relevant while transitioning; normally unused).
        self.pt_policy = pt_policy or FirstTouchPolicy()

    # -- allocation -----------------------------------------------------------

    def alloc_table(self, tree: PageTableTree, level: int, node_hint: int) -> PageTablePage:
        """Allocate one copy per socket in the mask, ring-linked.

        The primary is the copy on the lowest masked socket (deterministic;
        the tree's walk logic uses it, hardware never does).
        """
        sockets = sorted(self.mask)
        copies: list[PageTablePage] = []
        for socket in sockets:
            frame = self.pagecache.alloc(socket)
            frame.kind = FrameKind.PAGE_TABLE
            copies.append(PageTablePage(frame=frame, level=level))
        primary = copies[0]
        for copy in copies[1:]:
            copy.primary = primary
        link_ring(copies)
        for copy in copies:
            tree.registry[copy.pfn] = copy
        self.stats.tables_allocated += len(copies)
        session = current_session()
        if session is not None:
            session.instant(
                "replicate-table",
                category="mitosis",
                level=level,
                sockets=sockets,
                copies=len(copies),
            )
        return primary

    def release_table(self, tree: PageTableTree, page: PageTablePage) -> None:
        """Free the whole replica ring of ``page``."""
        members = ring_members(tree, page)
        self.stats.ring_hops += len(members)
        unlink_ring(members)
        for member in members:
            del tree.registry[member.pfn]
            self.pagecache.free(member.frame)
        self.stats.tables_released += len(members)
        session = current_session()
        if session is not None:
            session.instant(
                "teardown-table",
                category="mitosis",
                level=page.level,
                copies=len(members),
            )

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
                    local_child = _pick_for_socket(child_ring, member.node)
                    member_value = make_pte(local_child.pfn, pte_flags(value))
                apply(member, index, member_value)
        self.stats.pte_writes += writes
        # The eager-propagation hot path: counters only, no event objects
        # (see docs/observability.md on event volume).
        session = current_session()
        if session is not None:
            session.count("mitosis.set_pte", float(len(values)))
            session.count("mitosis.set_pte_replica_writes", float(writes))

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
        local = replica_on_socket(tree, tree.root, socket)
        return (local or tree.root).pfn


def _pick_for_socket(ring: list[PageTablePage], socket: int) -> PageTablePage:
    """The ring member on ``socket``, else the ring's primary."""
    for member in ring:
        if member.node == socket:
            return member
    for member in ring:
        if not member.is_replica:
            return member
    return ring[0]

"""The circular replica ring (Fig. 8).

Updating all replicas of a page-table page must not require walking every
replica tree (that would cost 4N memory accesses per update on an N-socket
machine). Mitosis instead threads a circular linked list through the frame
metadata (``struct page``): from any replica, the others are reached by
chasing ``replica_next`` pointers — 2N references for an N-way update
(N pointer reads + N writes).

The ring is stored exactly where the paper stores it: in
:attr:`repro.mem.frame.Frame.replica_next`, as a PFN. Resolving a PFN back
to a :class:`~repro.paging.pagetable.PageTablePage` goes through the tree's
registry, the simulator's stand-in for Linux's pfn->struct-page conversion.
"""

from __future__ import annotations

from repro.errors import ReplicationError
from repro.paging.pagetable import PageTablePage, PageTableTree


def link_ring(pages: list[PageTablePage]) -> None:
    """Join ``pages`` into one circular replica ring.

    A single page forms a self-ring (it is "replicated" 1-way), which keeps
    the traversal code uniform.
    """
    if not pages:
        raise ReplicationError("cannot link an empty replica ring")
    seen_nodes = set()
    for page in pages:
        if page.node in seen_nodes:
            raise ReplicationError(f"two replicas on node {page.node}")
        seen_nodes.add(page.node)
    count = len(pages)
    for i, page in enumerate(pages):
        page.frame.replica_next = pages[(i + 1) % count].pfn


def unlink_ring(pages: list[PageTablePage]) -> None:
    """Dissolve a ring (frames stop being replica members)."""
    for page in pages:
        page.frame.replica_next = None


def ring_members(tree: PageTableTree, page: PageTablePage) -> list[PageTablePage]:
    """All replicas in ``page``'s ring, starting at ``page``.

    Returns ``[page]`` when the page is not replicated. Each element after
    the first costs one metadata pointer chase at runtime; callers that
    account cycles count ``len(result)`` ring hops for a full traversal.
    """
    members = [page]
    next_pfn = page.frame.replica_next
    if next_pfn is None:
        return members
    while next_pfn != page.pfn:
        nxt = tree.registry.get(next_pfn)
        if nxt is None:
            raise ReplicationError(
                f"replica ring of pfn {page.pfn} points at unregistered pfn {next_pfn}"
            )
        members.append(nxt)
        if len(members) > 1024:
            raise ReplicationError(f"replica ring of pfn {page.pfn} does not close")
        next_pfn = nxt.frame.replica_next
    return members


def local_copy(ring: list[PageTablePage], socket: int) -> PageTablePage:
    """The copy of ``ring`` an upper-level entry on ``socket`` points at
    (semantic replication, §5.2): the member on ``socket``, else the
    ring's primary."""
    for member in ring:
        if member.node == socket:
            return member
    return primary_of(ring[0])


def replica_on_socket(
    tree: PageTableTree, page: PageTablePage, socket: int
) -> PageTablePage | None:
    """The ring member living on ``socket``, or ``None``."""
    for member in ring_members(tree, page):
        if member.node == socket:
            return member
    return None


def primary_of(page: PageTablePage) -> PageTablePage:
    """The primary copy of a (possibly replica) page."""
    return page.primary if page.primary is not None else page

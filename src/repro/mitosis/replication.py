"""Building and dissolving page-table replicas on a live tree.

Setting a replication mask on a running process must replicate the
*existing* page-table ("Whenever a new mask is set, Mitosis will walk the
existing page-table and create replicas according to the new bitmask",
§6.2). :func:`enable_replication` performs that walk; \
:func:`collapse_replicas` implements the inverse (used when the mask is
cleared, and by page-table migration's eager-free mode, §5.5).
"""

from __future__ import annotations

from repro.errors import OutOfMemoryError, ReplicationError
from repro.kernel.policy import PlacementPolicy
from repro.kernel.pvops import NativePagingOps
from repro.mem.frame import Frame
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.ring import link_ring, ring_members, unlink_ring
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import PageTablePage, PageTableTree, PagingOps
from repro.paging.pte import make_pte, pte_flags, pte_huge, pte_pfn, pte_present
from repro.trace.session import current_session


def replica_sockets(tree: PageTableTree) -> frozenset[int]:
    """Sockets currently holding a copy of the tree's root."""
    return frozenset(member.node for member in ring_members(tree, tree.root))


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def enable_replication(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    mask: frozenset[int],
) -> MitosisPagingOps:
    """Replicate an existing tree onto every socket in ``mask``.

    Copies that already exist are kept; missing ones are allocated, wired
    semantically (upper levels point at same-socket children) and
    ring-linked. The tree's ops backend is swapped to
    :class:`MitosisPagingOps` so subsequent updates stay consistent.
    """
    session = current_session()
    if session is None:
        return _enable_replication(tree, pagecache, mask)
    with session.span("mitosis.enable", category="mitosis", mask=sorted(mask)) as span:
        ops = _enable_replication(tree, pagecache, mask)
        span.set(tables_allocated=ops.stats.tables_allocated)
        return ops


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def _enable_replication(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    mask: frozenset[int],
) -> MitosisPagingOps:
    if not mask:
        raise ReplicationError("empty mask; use collapse_replicas to disable")
    primaries = list(tree.iter_tables())
    new_ops = MitosisPagingOps(pagecache, mask)
    new_ops.stats = tree.ops.stats  # carry counters across the backend swap

    # Pass 0: reserve every frame the replication will need *before*
    # touching the tree, so a strict per-socket allocation failure (§5.1)
    # leaves the address space exactly as it was.
    missing = [mask - {member.node for member in ring_members(tree, p)} for p in primaries]
    needed: dict[int, int] = {}
    for sockets in missing:
        for socket in sockets:
            needed[socket] = needed.get(socket, 0) + 1
    reserved: dict[int, list] = {socket: [] for socket in needed}
    try:
        for socket, count in needed.items():
            for _ in range(count):
                reserved[socket].append(pagecache.alloc(socket))
    except OutOfMemoryError:
        for frames in reserved.values():
            while frames:
                pagecache.free(frames.pop())
        raise
    # Hand each ring its frames top-down, last reserved first: this decides
    # which frame every copy gets, independently of the build order below.
    plans = [{s: reserved[s].pop() for s in sorted(sockets)} for sockets in missing]
    fresh = [frame for plan in plans for frame in plan.values()]

    # Build children before parents, so every copy can point at its
    # socket-local child. Any failure mid-walk (an injected fault, a ring
    # inconsistency) unwinds every fresh copy: no half-linked rings, no
    # leaked frames, no half-swapped ops backend.
    try:
        for primary, plan in zip(reversed(primaries), reversed(plans)):
            new_ops.alloc_table(tree, primary.level, primary.node, primary=primary, take=plan.pop)
    except Exception:
        _rollback_partial_enable(tree, pagecache, primaries, plans, fresh)
        raise

    tree.ops = new_ops
    return new_ops


def _rollback_partial_enable(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    primaries: list[PageTablePage],
    plans: list[dict[int, Frame]],
    fresh: list[Frame],
) -> None:
    """Unwind a failed :func:`enable_replication` mid-walk.

    The copies built so far are the registered pages on ``fresh`` frames.
    Surviving copies may point at one of them: repoint those entries at
    the child ring's primary first, then unlink the new copies out of
    their rings, drop them from the registry and hand their frames back
    to the page-cache. Frames not yet taken from ``plans`` go back too.
    """
    created = {f.pfn: tree.registry[f.pfn] for f in fresh if f.pfn in tree.registry}
    rings = [ring_members(tree, primary) for primary in primaries]
    # Repoint survivors away from copies that are about to be freed.
    for members in rings:
        if members[0].level == LEAF_LEVEL:
            continue
        for member in members:
            if member.pfn in created:
                continue
            for index, entry in enumerate(member.entries):
                if not pte_present(entry) or pte_huge(entry):
                    continue
                doomed = created.get(pte_pfn(entry))
                if doomed is not None:
                    PagingOps.apply_entry_write(
                        member, index, make_pte(doomed.primary.pfn, pte_flags(entry))
                    )
    # Restore ring linkage and free every fresh copy.
    for members in rings:
        keep = [m for m in members if m.pfn not in created]
        if len(keep) < len(members):
            unlink_ring(members)
            if len(keep) > 1:
                link_ring(keep)
    for copy in created.values():
        del tree.registry[copy.pfn]
        pagecache.free(copy.frame)
        tree.ops.stats.tables_allocated -= 1
    for plan in plans:
        for frame in plan.values():
            pagecache.free(frame)
    session = current_session()
    if session is not None:
        # The fixup arc: a failed enable was unwound back to the
        # pre-replication state. Correlate with the 'fault' instant that
        # triggered it via the timeline ordering.
        session.instant(
            "enable-rollback",
            category="mitosis",
            fresh_copies=len(created),
        )


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def shrink_replication(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    drop_sockets: frozenset[int],
) -> int:
    """Free the replicas on ``drop_sockets`` without disturbing the rest.

    The §5.5 lazy-deallocation path: replicas kept "in case the process
    gets migrated back" are released when memory becomes scarce. Primary
    copies are never dropped (use :func:`collapse_replicas` to re-root).

    Returns the number of table pages freed. Sockets that lose their copy
    simply fall back to walking the primary, like any unmasked socket.
    """
    session = current_session()
    if session is None:
        return _shrink_replication(tree, pagecache, drop_sockets)
    with session.span(
        "mitosis.shrink", category="mitosis", drop=sorted(drop_sockets)
    ) as span:
        freed = _shrink_replication(tree, pagecache, drop_sockets)
        span.set(freed=freed)
        return freed


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def _shrink_replication(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    drop_sockets: frozenset[int],
) -> int:
    # Pass A: decide what goes. Primaries always stay.
    rings = []
    dropping: dict[int, PageTablePage] = {}  # dropped pfn -> its ring's primary
    for primary in tree.iter_tables():
        members = ring_members(tree, primary)
        rings.append((primary, members))
        for member in members:
            if member.is_replica and member.node in drop_sockets:
                dropping[member.pfn] = primary

    # Pass B: surviving copies must not point at dropped child replicas —
    # repoint them at the child's primary (a remote-but-valid fallback,
    # exactly what an unmasked socket walks anyway).
    for primary, members in rings:
        if primary.level == LEAF_LEVEL:
            continue
        for member in members:
            if member.pfn in dropping:
                continue
            for index, entry in enumerate(member.entries):
                if not pte_present(entry) or pte_huge(entry):
                    continue
                target = dropping.get(pte_pfn(entry))
                if target is not None:
                    PagingOps.apply_entry_write(
                        member, index, make_pte(target.pfn, pte_flags(entry))
                    )
                    tree.ops.stats.pte_writes += 1

    # Pass C: relink rings and free the dropped frames.
    freed = 0
    for primary, members in rings:
        keep = [m for m in members if m.pfn not in dropping]
        drop = [m for m in members if m.pfn in dropping]
        if not drop:
            continue
        unlink_ring(members)
        link_ring(keep)
        for member in drop:
            del tree.registry[member.pfn]
            pagecache.free(member.frame)
            tree.ops.stats.tables_released += 1
            freed += 1
    if isinstance(tree.ops, MitosisPagingOps):
        # New tables keep covering whatever the mask still asks for.
        new_mask = tree.ops.mask - drop_sockets
        tree.ops.mask = new_mask or frozenset({tree.root.node})
        # Downgrade to the native backend only when *every* ring is a
        # singleton (rings are heterogeneous when primaries sit outside
        # the mask, so the root ring alone proves nothing).
        all_single = all(
            page.frame.replica_next is None or page.frame.replica_next == page.pfn
            for page in tree.registry.values()
        )
        if all_single:
            new_ops = NativePagingOps(pagecache)
            new_ops.stats = tree.ops.stats
            tree.ops = new_ops
            for page in tree.registry.values():
                page.frame.replica_next = None
    return freed


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def collapse_replicas(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    keep_socket: int,
    pt_policy: PlacementPolicy | None = None,
) -> NativePagingOps:
    """Dissolve replication, keeping only the copy on ``keep_socket``.

    The kept copy becomes the (single) primary — this is how page-table
    *migration* frees the origin socket's tables eagerly (§5.5). The ops
    backend reverts to :class:`~repro.kernel.pvops.NativePagingOps`.

    Rings need not cover ``keep_socket`` uniformly (masks that exclude a
    table's primary socket leave mixed coverage); missing copies are built
    first, so the collapse is all-or-nothing.

    Raises:
        OutOfMemoryError: ``keep_socket`` cannot hold the missing copies;
            the tree is left exactly as it was.
    """
    session = current_session()
    if session is None:
        return _collapse_replicas(tree, pagecache, keep_socket, pt_policy)
    with session.span(
        "mitosis.collapse", category="mitosis", keep_socket=keep_socket
    ):
        return _collapse_replicas(tree, pagecache, keep_socket, pt_policy)


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def _collapse_replicas(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    keep_socket: int,
    pt_policy: PlacementPolicy | None = None,
) -> NativePagingOps:
    # Gap-fill: guarantee every ring has a copy on the kept socket before
    # any mutation (enable_replication is idempotent and OOM-atomic).
    enable_replication(tree, pagecache, frozenset({keep_socket}))
    new_ops = NativePagingOps(pagecache, pt_policy=pt_policy)
    new_ops.stats = tree.ops.stats

    for primary in list(tree.iter_tables()):
        members = ring_members(tree, primary)
        keep = next((m for m in members if m.node == keep_socket), None)
        assert keep is not None, "gap-fill guaranteed a copy on the kept socket"
        unlink_ring(members)
        keep.primary = None
        for member in members:
            if member is keep:
                continue
            del tree.registry[member.pfn]
            pagecache.free(member.frame)
            new_ops.stats.tables_released += 1
        if primary is tree.root:
            new_root = keep

    tree.root = new_root
    tree.ops = new_ops
    return new_ops

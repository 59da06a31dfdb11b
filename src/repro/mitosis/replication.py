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
from repro.kernel.pvops import NativePagingOps
from repro.mem.frame import Frame
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.lazy import LazyMitosisPagingOps
from repro.mitosis.naive import NaiveMitosisPagingOps
from repro.mitosis.ring import ring_members
from repro.paging.pagetable import PageTablePage, PageTableTree, PagingOps
from repro.trace.session import trace_instant, trace_span


def replica_sockets(tree: PageTableTree) -> frozenset[int]:
    """Sockets currently holding a copy of the tree's root."""
    return frozenset(member.node for member in ring_members(tree, tree.root))


def _apply_queued_updates(tree: PageTableTree) -> None:
    """Apply a lazy backend's deferred updates (§7.2) to every copy before
    the rings change, so none is lost with a swapped backend or replayed
    into a freed copy's reused frame."""
    if isinstance(tree.ops, LazyMitosisPagingOps):
        for socket in tree.ops.queues:
            tree.ops.sync_socket(tree, socket)


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
    :class:`MitosisPagingOps` so subsequent updates stay consistent (a
    lazy or naive backend is swapped for one of its own kind).
    """
    with trace_span("mitosis.enable", category="mitosis", mask=sorted(mask)) as span:
        if not mask:
            raise ReplicationError("empty mask; use collapse_replicas to disable")
        _apply_queued_updates(tree)
        primaries = list(tree.iter_tables())
        new_ops = _replicating_backend(tree.ops, pagecache, mask)
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
            _rollback_partial_enable(tree, new_ops, primaries, plans, fresh)
            raise

        tree.ops = new_ops
        span.set(tables_allocated=new_ops.stats.tables_allocated)
    return new_ops


def _replicating_backend(
    ops: PagingOps, pagecache: PageTablePageCache, mask: frozenset[int]
) -> MitosisPagingOps:
    """The backend a tree replicated on ``mask`` runs: eager, unless it
    already propagates lazily (§7.2), which stays lazy with the same home
    socket and counters, or naively (§5.2), which keeps its walk-per-replica
    accounting."""
    if isinstance(ops, NaiveMitosisPagingOps):
        return NaiveMitosisPagingOps(pagecache, mask)
    if not isinstance(ops, LazyMitosisPagingOps):
        return MitosisPagingOps(pagecache, mask)
    lazy = LazyMitosisPagingOps(pagecache, mask)
    lazy.home_socket = ops.home_socket
    lazy.lazy_stats = ops.lazy_stats
    return lazy


def _rollback_partial_enable(
    tree: PageTableTree,
    new_ops: MitosisPagingOps,
    primaries: list[PageTablePage],
    plans: list[dict[int, Frame]],
    fresh: list[Frame],
) -> None:
    """Unwind a failed :func:`enable_replication` mid-walk.

    The copies built so far are the registered pages on ``fresh`` frames;
    they leave their rings through :meth:`MitosisPagingOps.remove_copies`.
    Frames not yet taken from ``plans`` go back to the page-cache too.
    """
    created = [tree.registry[f.pfn] for f in fresh if f.pfn in tree.registry]
    rings = [ring_members(tree, primary) for primary in primaries]
    freed, _ = new_ops.remove_copies(tree, rings, created)
    new_ops.stats.tables_allocated -= freed
    for plan in plans:
        for frame in plan.values():
            new_ops.pagecache.free(frame)
    # The fixup arc: a failed enable was unwound back to the
    # pre-replication state. Correlate with the 'fault' instant that
    # triggered it via the timeline ordering.
    trace_instant("enable-rollback", category="mitosis", fresh_copies=len(created))


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
    with trace_span("mitosis.shrink", category="mitosis", drop=sorted(drop_sockets)) as span:
        ops = tree.ops
        if not isinstance(ops, MitosisPagingOps):
            span.set(freed=0)
            return 0  # nothing is replicated
        _apply_queued_updates(tree)
        rings = [ring_members(tree, primary) for primary in tree.iter_tables()]
        # Primaries always stay. A survivor that pointed at a dropped child
        # replica now points at the child's primary, a remote but valid
        # fallback (exactly what an unmasked socket walks anyway).
        dropping = [m for ring in rings for m in ring if m.is_replica and m.node in drop_sockets]
        freed, repointed = ops.remove_copies(tree, rings, dropping)
        ops.stats.pte_writes += repointed
        ops.stats.tables_released += freed
        # New tables keep covering whatever the mask still asks for.
        ops.mask = (ops.mask - drop_sockets) or frozenset({tree.root.node})
        # Downgrade to the native backend only when *every* ring is a
        # singleton (rings are heterogeneous when primaries sit outside the
        # mask, so the root ring alone proves nothing).
        if all(page.frame.replica_next is None for page in tree.registry.values()):
            tree.ops = NativePagingOps(pagecache)
            tree.ops.stats = ops.stats
        span.set(freed=freed)
    return freed


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def collapse_replicas(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    keep_socket: int,
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
    with trace_span("mitosis.collapse", category="mitosis", keep_socket=keep_socket):
        # Gap-fill: guarantee every ring has a copy on the kept socket before
        # any mutation (enable_replication is idempotent and OOM-atomic, and
        # applies a lazy backend's queued updates first).
        ops = enable_replication(tree, pagecache, frozenset({keep_socket}))
        rings = [ring_members(tree, primary) for primary in tree.iter_tables()]
        doomed = [m for ring in rings for m in ring if m.node != keep_socket]
        freed, _ = ops.remove_copies(tree, rings, doomed)
        ops.stats.tables_released += freed
        tree.ops = NativePagingOps(pagecache)
        tree.ops.stats = ops.stats
    return tree.ops

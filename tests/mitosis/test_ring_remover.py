"""One replica remover: the failed-enable rollback, shrink, collapse and
ring teardown all leave their rings through
``MitosisPagingOps.remove_copies``.

The removal loops each of them used to carry are kept below as oracles
(``oracle_*``). Every case builds the same tree twice, removes copies once
through the library and once through the oracle, and compares the table
registry, every copy's entries, the rings (an unlinked one-copy ring reads
the same as a self-ring), the primary links, the root, the backend's
counters and the order in which frames reach the page-cache.
"""

import pytest

import repro.mitosis.backend as backend
import repro.mitosis.replication as replication
from repro.errors import OutOfMemoryError
from repro.inject import verify_tree
from repro.kernel.policy import FirstTouchPolicy, FixedNodePolicy
from repro.kernel.pvops import NativePagingOps
from repro.machine.topology import Machine
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.lazy import make_lazy
from repro.mitosis.naive import NaiveMitosisPagingOps
from repro.mitosis.replication import collapse_replicas, enable_replication, shrink_replication
from repro.mitosis.ring import link_ring, ring_members, unlink_ring
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import PageTableTree, PagingOps
from repro.paging.pte import (
    PTE_USER,
    PTE_WRITABLE,
    make_pte,
    pte_flags,
    pte_huge,
    pte_pfn,
    pte_present,
)
from repro.paging.walker import HardwareWalker
from repro.units import HUGE_PAGE_SIZE, MIB, PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER
#: L4 slot 1: a subtree of its own below the root.
FAR_VA = 0x8000000000


# -- the removal loops the remover replaced -------------------------------------


def oracle_rollback(tree, new_ops, primaries, plans, fresh):
    pagecache = new_ops.pagecache
    created = {f.pfn: tree.registry[f.pfn] for f in fresh if f.pfn in tree.registry}
    rings = [ring_members(tree, primary) for primary in primaries]
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


def oracle_shrink(tree, pagecache, drop_sockets):
    rings = []
    dropping = {}
    for primary in tree.iter_tables():
        members = ring_members(tree, primary)
        rings.append((primary, members))
        for member in members:
            if member.is_replica and member.node in drop_sockets:
                dropping[member.pfn] = primary
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
        new_mask = tree.ops.mask - drop_sockets
        tree.ops.mask = new_mask or frozenset({tree.root.node})
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


def oracle_collapse(tree, pagecache, keep_socket):
    enable_replication(tree, pagecache, frozenset({keep_socket}))
    new_ops = NativePagingOps(pagecache)
    new_ops.stats = tree.ops.stats
    for primary in list(tree.iter_tables()):
        members = ring_members(tree, primary)
        keep = next(m for m in members if m.node == keep_socket)
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


def oracle_release_table(self, tree, page):
    members = ring_members(tree, page)
    self.stats.ring_hops += len(members)
    unlink_ring(members)
    for member in members:
        del tree.registry[member.pfn]
        self.pagecache.free(member.frame)
    self.stats.tables_released += len(members)


# -- trees ------------------------------------------------------------------------


def _map(physmem, tree, va, socket, count=1, huge=False):
    size = HUGE_PAGE_SIZE if huge else PAGE_SIZE
    for i in range(count):
        frame = (physmem.alloc_huge_frame if huge else physmem.alloc_frame)(socket)
        tree.map_page(va + i * size, frame.pfn, FLAGS, huge=huge, node_hint=socket)


def _native(physmem, policy):
    cache = PageTablePageCache(physmem)
    return cache, PageTableTree(NativePagingOps(cache, pt_policy=policy))


def _install(tree, cache, ops_cls, mask):
    ops = ops_cls(cache, mask)
    ops.stats = tree.ops.stats
    tree.ops = ops


# Each shape returns a tree before its replication and the mask it is
# replicated on. ``mixed`` leaves rings that lack a copy on socket 0, and
# ``first_touch`` on four sockets rings that lack one on 3 (masks that
# exclude their primary's socket). In ``first_touch`` the primaries on
# socket 0 point at child replicas there, so dropping socket 0 repoints.


def four_k(physmem, sockets, ops_cls):
    cache, tree = _native(physmem, FixedNodePolicy(0))
    _map(physmem, tree, 0, 0, count=600)  # two leaf tables
    _map(physmem, tree, FAR_VA, sockets - 1, count=3)
    return cache, tree, frozenset(range(sockets))


def thp(physmem, sockets, ops_cls):
    cache, tree = _native(physmem, FixedNodePolicy(sockets - 1))
    _map(physmem, tree, 0, sockets - 1, huge=True)
    _map(physmem, tree, HUGE_PAGE_SIZE, sockets - 1, count=4)
    _map(physmem, tree, 4 * HUGE_PAGE_SIZE, 0, huge=True)
    return cache, tree, frozenset(range(sockets))


def mixed(physmem, sockets, ops_cls):
    cache, tree = _native(physmem, FixedNodePolicy(0))
    _map(physmem, tree, 0, 0, count=40)
    mask = frozenset(range(1, sockets))
    enable_replication(tree, cache, mask)
    _install(tree, cache, ops_cls, mask)
    _map(physmem, tree, FAR_VA, 1, count=5)  # born on the mask only
    return cache, tree, mask


def first_touch(physmem, sockets, ops_cls):
    cache, tree = _native(physmem, FirstTouchPolicy())
    for socket in range(sockets):
        _map(physmem, tree, socket * 2 * MIB, socket, count=3)
    _map(physmem, tree, FAR_VA, sockets - 1, count=2)
    return cache, tree, frozenset({0, 1})


SHAPES = [four_k, thp, mixed, first_touch]
BACKENDS = {"eager": MitosisPagingOps, "naive": NaiveMitosisPagingOps}


def replicated(physmem, shape, sockets, ops_cls):
    cache, tree, mask = shape(physmem, sockets, ops_cls)
    enable_replication(tree, cache, mask)
    _install(tree, cache, ops_cls, mask)
    return cache, tree


def record_frees(cache):
    """Log the pfn of every frame handed back to ``cache``, in order."""
    freed = []
    free = cache.free

    def recording(frame):
        freed.append(frame.pfn)
        free(frame)

    cache.free = recording
    return freed


def state(tree, freed):
    ops = tree.ops
    return {
        "root": tree.root.pfn,
        "tables": {
            pfn: (
                page.level,
                page.node,
                {index: entry for index, entry in enumerate(page.entries) if entry},
                page.valid_count,
                None if page.primary is None else page.primary.pfn,
                [member.pfn for member in ring_members(tree, page)],
            )
            for pfn, page in sorted(tree.registry.items())
        },
        "ops": (type(ops).__name__, getattr(ops, "mask", None), ops.stats),
        "freed": freed,
    }


def both_ways(machine, build, act):
    """Run ``act(cache, tree, oracle)`` on two identical trees; returns
    the library's and the oracle's end states."""
    states = []
    for oracle in (False, True):
        cache, tree = build(PhysicalMemory(machine))
        freed = record_frees(cache)
        act(cache, tree, oracle)
        states.append(state(tree, freed))
    return states


@pytest.fixture(params=[2, 4], ids=lambda n: f"{n}s")
def sockets(request):
    return request.param


@pytest.fixture
def machine(sockets):
    return Machine.homogeneous(sockets, cores_per_socket=1, memory_per_socket=32 * MIB)


each_shape = pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape.__name__)


@each_shape
@pytest.mark.parametrize("ops_name", sorted(BACKENDS))
class TestSameAsTheRemovalLoops:
    def test_shrink(self, machine, sockets, shape, ops_name):
        ops_cls = BACKENDS[ops_name]
        drops = [frozenset({s}) for s in range(sockets)] + [frozenset(range(1, sockets))]
        for drop in drops:
            def act(cache, tree, oracle):
                (oracle_shrink if oracle else shrink_replication)(tree, cache, drop)
                if not oracle:
                    assert verify_tree(tree).ok

            mine, theirs = both_ways(
                machine, lambda p: replicated(p, shape, sockets, ops_cls), act
            )
            assert mine == theirs, f"drop {sorted(drop)}"

    def test_collapse(self, machine, sockets, shape, ops_name):
        ops_cls = BACKENDS[ops_name]
        for keep in range(sockets):
            def act(cache, tree, oracle):
                (oracle_collapse if oracle else collapse_replicas)(tree, cache, keep)
                if not oracle:
                    assert verify_tree(tree).ok

            mine, theirs = both_ways(
                machine, lambda p: replicated(p, shape, sockets, ops_cls), act
            )
            assert mine["freed"], "collapse freed nothing"
            assert mine == theirs, f"keep socket {keep}"

    def test_release_table(self, machine, sockets, shape, ops_name, monkeypatch):
        ops_cls = BACKENDS[ops_name]

        def act(cache, tree, oracle):
            with monkeypatch.context() as patch:
                if oracle:
                    patch.setattr(MitosisPagingOps, "release_table", oracle_release_table)
                for va, _ in list(tree.iter_mappings()):
                    tree.unmap_page(va)

        mine, theirs = both_ways(machine, lambda p: replicated(p, shape, sockets, ops_cls), act)
        assert mine["freed"], "unmapping released no table"
        assert mine == theirs


def _link_calls(machine, shape, sockets, mask, monkeypatch):
    """How many times a clean enable of ``mask`` links a ring."""
    calls = []
    real_link = backend.link_ring
    cache, tree, _ = shape(PhysicalMemory(machine), sockets, MitosisPagingOps)
    with monkeypatch.context() as patch:
        patch.setattr(backend, "link_ring", lambda pages: (calls.append(1), real_link(pages)))
        enable_replication(tree, cache, mask)
    return len(calls)


@each_shape
class TestRollback:
    def test_rollback_at_every_link(self, machine, sockets, shape, monkeypatch):
        mask = frozenset(range(sockets))
        calls = _link_calls(machine, shape, sockets, mask, monkeypatch)
        assert calls
        real_link = backend.link_ring
        for fail_at in range(1, calls + 1):
            def act(cache, tree, oracle):
                count = [0]

                def flaky_link(pages):
                    count[0] += 1
                    if count[0] == fail_at:
                        raise OutOfMemoryError(0, PAGE_SIZE, "injected link failure")
                    real_link(pages)

                with monkeypatch.context() as patch:
                    patch.setattr(backend, "link_ring", flaky_link)
                    if oracle:
                        patch.setattr(replication, "_rollback_partial_enable", oracle_rollback)
                    ops_before = tree.ops
                    with pytest.raises(OutOfMemoryError):
                        enable_replication(tree, cache, mask)
                    assert tree.ops is ops_before
                if not oracle:
                    assert verify_tree(tree).ok

            mine, theirs = both_ways(
                machine, lambda p: shape(p, sockets, MitosisPagingOps)[:2], act
            )
            assert mine == theirs, f"link call {fail_at} of {calls}"


class TestRemoveCopies:
    def test_losing_the_primary_promotes_the_first_survivor(self, physmem4):
        cache, tree = replicated(physmem4, four_k, 4, MitosisPagingOps)
        tree.ops.mask = frozenset({1, 2, 3})
        mappings = dict(tree.iter_mappings())
        rings = [ring_members(tree, primary) for primary in tree.iter_tables()]
        doomed = [ring[0] for ring in rings]  # every primary: all on socket 0
        assert tree.ops.remove_copies(tree, rings, doomed) == (len(rings), 0)
        assert tree.root is rings[0][1]
        for ring in rings:
            head, *rest = ring[1:]
            assert head.primary is None
            assert all(member.primary is head for member in rest)
        assert verify_tree(tree).ok
        assert dict(tree.iter_mappings()) == mappings
        walk = HardwareWalker(tree).walk(FAR_VA, socket=0, set_ad_bits=False)
        assert walk.translation is not None
        assert {access.node for access in walk.accesses} == {1}


# -- the lazy backend's queues are applied before replication changes -----------


def _lazy_tree(physmem, mask=frozenset({0, 1})):
    cache, tree = _native(physmem, FixedNodePolicy(0))
    _map(physmem, tree, 0, 0, count=4)
    enable_replication(tree, cache, mask)
    ops = make_lazy(tree, cache)
    ops.home_socket = 0
    pfn = physmem.alloc_frame(0).pfn
    tree.map_page(0x5000, pfn, FLAGS)  # deferred for every socket but 0
    return cache, tree, ops, pfn


class TestLazyQueues:
    def test_collapse_off_the_home_socket_keeps_deferred_updates(self, physmem2):
        cache, tree, ops, pfn = _lazy_tree(physmem2)
        assert ops.pending(1)
        collapse_replicas(tree, cache, 1)
        walk = HardwareWalker(tree).walk(0x5000, socket=1, set_ad_bits=False)
        assert not walk.faulted and walk.translation.pfn == pfn
        assert tree.translate(0x5000).pfn == pfn

    def test_reenabling_the_same_mask_applies_deferred_updates(self, physmem2):
        cache, tree, ops, pfn = _lazy_tree(physmem2)
        writes = ops.stats.pte_writes
        enable_replication(tree, cache, frozenset({0, 1}))
        assert ops.pending(1) == 0 and ops.lazy_stats.drained == 1
        assert tree.ops.stats.pte_writes == writes + 1
        walk = HardwareWalker(tree).walk(0x5000, socket=1, set_ad_bits=False)
        assert not walk.faulted and walk.translation.pfn == pfn

    def test_shrink_leaves_no_update_aimed_at_a_freed_copy(self, machine4):
        physmem = PhysicalMemory(machine4)
        cache, tree, ops, pfn = _lazy_tree(physmem, mask=frozenset({0, 1, 2}))
        shrink_replication(tree, cache, frozenset({1}))
        assert tree.ops is ops
        assert ops.pending(1) == 0 and ops.pending(2) == 0
        walk = HardwareWalker(tree).walk(0x5000, socket=2, set_ad_bits=False)
        assert not walk.faulted and walk.translation.pfn == pfn

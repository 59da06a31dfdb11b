"""Lazy propagation (§7.2): deferred updates, fault-driven reconciliation,
eager destructive updates."""

import pytest

from repro.errors import InvalidMappingError
from repro.kernel.kernel import Kernel
from repro.kernel.policy import FixedNodePolicy
from repro.kernel.pvops import NativePagingOps
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.lazy import LazyMitosisPagingOps, make_lazy
from repro.mitosis.replication import enable_replication
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_USER, PTE_WRITABLE
from repro.paging.walker import HardwareWalker
from repro.units import PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER
MASK = frozenset({0, 1})


@pytest.fixture
def lazy_tree(physmem2):
    cache = PageTablePageCache(physmem2)
    tree = PageTableTree(NativePagingOps(cache, pt_policy=FixedNodePolicy(0)))
    for i in range(4):
        tree.map_page(i * PAGE_SIZE, physmem2.alloc_frame(0).pfn, FLAGS)
    enable_replication(tree, cache, MASK)
    ops = make_lazy(tree, cache)
    ops.home_socket = 0
    return physmem2, tree, ops


class TestDeferredUpdates:
    def test_new_mapping_visible_at_home_immediately(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        pfn = physmem.alloc_frame(0).pfn
        tree.map_page(0x100000, pfn, FLAGS)
        walker = HardwareWalker(tree)
        home = walker.walk(0x100000, socket=0, set_ad_bits=False)
        assert home.translation is not None and home.translation.pfn == pfn

    def test_remote_replica_stale_until_fault(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        pfn = physmem.alloc_frame(0).pfn
        tree.map_page(0x100000, pfn, FLAGS)
        walker = HardwareWalker(tree)
        stale = walker.walk(0x100000, socket=1, set_ad_bits=False)
        assert stale.faulted  # message not yet applied
        assert ops.pending(1) > 0
        # The fault-driven path: reconcile, retry.
        ops.handle_stale_fault(tree, socket=1)
        retry = walker.walk(0x100000, socket=1, set_ad_bits=False)
        assert retry.translation is not None and retry.translation.pfn == pfn
        assert ops.pending(1) == 0

    def test_write_path_touches_one_socket(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        before = ops.stats.pte_writes
        pfn = physmem.alloc_frame(0).pfn
        tree.map_page(0x200000, pfn, FLAGS)
        # Leaf write: exactly one synchronous entry write (the home copy).
        # The chain above may allocate tables (written on both), so check
        # a pure leaf update instead:
        before = ops.stats.pte_writes
        other = physmem.alloc_frame(0).pfn
        tree.map_page(0x201000, other, FLAGS)  # same L1 table, leaf only
        assert ops.stats.pte_writes == before + 1
        assert ops.lazy_stats.deferred >= 1

    def test_sync_socket_batches_everything(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        for i in range(16):
            tree.map_page(0x100000 + i * PAGE_SIZE, physmem.alloc_frame(0).pfn, FLAGS)
        pending = ops.pending(1)
        assert pending >= 16
        drained = ops.sync_socket(tree, 1)
        assert drained == pending
        walker = HardwareWalker(tree)
        for i in range(16):
            result = walker.walk(0x100000 + i * PAGE_SIZE, socket=1, set_ad_bits=False)
            assert result.translation is not None

    def test_deferred_updates_are_socket_locally_rewired(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        pfn = physmem.alloc_frame(0).pfn
        tree.map_page(0x40000000, pfn, FLAGS)  # new subtree (new tables)
        ops.sync_socket(tree, 1)
        walker = HardwareWalker(tree)
        result = walker.walk(0x40000000, socket=1, set_ad_bits=False)
        assert not result.faulted
        assert all(a.node == 1 for a in result.accesses)


class TestDestructiveUpdatesStayEager:
    def test_unmap_is_visible_everywhere_immediately(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        tree.unmap_page(0)
        walker = HardwareWalker(tree)
        for socket in (0, 1):
            assert walker.walk(0, socket, set_ad_bits=False).faulted
        assert ops.lazy_stats.eager >= 1

    def test_permission_revocation_is_eager(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        tree.protect_range(PAGE_SIZE, 2 * PAGE_SIZE, PTE_USER)  # drop writable
        from repro.paging.pte import pte_writable

        leaf = tree.leaf_location(PAGE_SIZE)
        from repro.mitosis.ring import ring_members

        for member in ring_members(tree, leaf.page):
            assert not pte_writable(member.entries[leaf.index])

    def test_permission_grant_may_defer(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        tree.protect_range(PAGE_SIZE, 2 * PAGE_SIZE, PTE_USER)  # revoke (eager)
        deferred_before = ops.lazy_stats.deferred
        tree.protect_range(PAGE_SIZE, 2 * PAGE_SIZE, FLAGS)  # re-grant (additive -> lazy)
        assert ops.lazy_stats.deferred == deferred_before + 1


class TestLifecycle:
    def test_make_lazy_requires_replication(self, physmem2):
        cache = PageTablePageCache(physmem2)
        tree = PageTableTree(NativePagingOps(cache))
        with pytest.raises(TypeError):
            make_lazy(tree, cache)

    def test_freed_table_messages_dropped_safely(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        pfn = physmem.alloc_frame(0).pfn
        tree.map_page(0x40000000, pfn, FLAGS)
        tree.unmap_page(0x40000000)  # frees the fresh chain (eager clear)
        # Pending messages may reference freed pages; draining must not blow up.
        ops.sync_socket(tree, 1)

    def test_eager_unmap_purges_stale_queued_map(self, lazy_tree):
        """map (deferred) then unmap (eager): draining afterwards must NOT
        resurrect the dead mapping on the remote socket."""
        physmem, tree, ops = lazy_tree
        pfn = physmem.alloc_frame(0).pfn
        tree.map_page(0x300000, pfn, FLAGS)
        assert ops.pending(1) > 0
        tree.unmap_page(0x300000)
        ops.sync_socket(tree, 1)
        result = HardwareWalker(tree).walk(0x300000, socket=1, set_ad_bits=False)
        assert result.faulted

    def test_a_b_a_message_ordering(self, lazy_tree):
        """Map, eager-unmap, remap: after draining, the remap (not the
        original mapping) must win on the remote socket."""
        physmem, tree, ops = lazy_tree
        first = physmem.alloc_frame(0).pfn
        tree.map_page(0x300000, first, FLAGS)
        tree.unmap_page(0x300000)
        second = physmem.alloc_frame(0).pfn
        tree.map_page(0x300000, second, FLAGS)
        ops.sync_socket(tree, 1)
        result = HardwareWalker(tree).walk(0x300000, socket=1, set_ad_bits=False)
        assert result.translation is not None
        assert result.translation.pfn == second


class TestHomeOffThePrimarySocket:
    """Home socket 1 while every primary sits on socket 0."""

    def test_primary_sees_an_additive_write_at_once(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        ops.home_socket = 1
        pfn = physmem.alloc_frame(0).pfn
        tree.map_page(0x5000, pfn, FLAGS)
        assert tree.translate(0x5000).pfn == pfn
        with pytest.raises(InvalidMappingError):
            tree.map_page(0x5000, physmem.alloc_frame(0).pfn, FLAGS)
        home = HardwareWalker(tree).walk(0x5000, socket=1, set_ad_bits=False)
        assert home.translation is not None and home.translation.pfn == pfn
        assert ops.pending(0) == 0 and ops.pending(1) == 0  # nothing left to defer

    def test_reenabling_a_mask_keeps_lazy_propagation(self, lazy_tree):
        physmem, tree, ops = lazy_tree
        ops.home_socket = 1
        enable_replication(tree, ops.pagecache, MASK)
        lazy = tree.ops
        assert isinstance(lazy, LazyMitosisPagingOps)
        assert lazy.home_socket == 1 and lazy.lazy_stats is ops.lazy_stats
        assert lazy.stats is ops.stats and lazy.mask == MASK
        lazy.home_socket = 0
        tree.map_page(0x300000, physmem.alloc_frame(0).pfn, FLAGS)
        assert lazy.pending(1) > 0  # socket 1's replica waits for a fault
        assert HardwareWalker(tree).walk(0x300000, socket=1, set_ad_bits=False).faulted

    def test_narrowed_mask_still_queues_for_the_copies_it_keeps(self, lazy_tree):
        """Enabling a narrower mask keeps the existing copies on the other
        sockets; the lazy backend still queues their updates."""
        physmem, tree, ops = lazy_tree
        enable_replication(tree, ops.pagecache, frozenset({0}))
        assert isinstance(tree.ops, LazyMitosisPagingOps) and tree.ops.mask == {0}
        pfn = physmem.alloc_frame(0).pfn
        tree.map_page(0x300000, pfn, FLAGS)
        assert tree.ops.pending(1) > 0
        tree.ops.handle_stale_fault(tree, socket=1)
        walk = HardwareWalker(tree).walk(0x300000, socket=1, set_ad_bits=False)
        assert walk.translation is not None and walk.translation.pfn == pfn


class TestSoftwareWalksReadPrimaries:
    """Primaries on socket 1, home socket 0: the primary root's entries
    name socket 1's copies of new tables, which are replicas whose writes
    wait in socket 1's queue. The kernel's software walks must still see
    every mapping the home socket made."""

    FAR = 1 << 39  # a fresh top-level slot: every table below it is new

    @pytest.fixture
    def far_page(self, machine2):
        kernel = Kernel(machine2, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS))
        process = kernel.create_process("p", socket=0, pt_policy=FixedNodePolicy(1))
        va = kernel.sys_mmap(process, PAGE_SIZE).value
        kernel.touch(process, va, is_write=True)
        kernel.mitosis.set_replication_mask(process, MASK)
        ops = make_lazy(process.mm.tree, kernel.pagecache)
        ops.home_socket = 0
        kernel.sys_mmap(process, PAGE_SIZE, fixed_va=self.FAR)
        kernel.touch(process, self.FAR, is_write=True)
        assert ops.pending(1) > 0  # socket 1's copies of the new tables lag
        return kernel, process

    def test_translate_finds_the_mapped_page(self, far_page):
        kernel, process = far_page
        translation = process.mm.tree.translate(self.FAR)
        assert translation is not None
        assert translation.pfn == process.mm.frames[self.FAR].pfn

    def test_second_touch_is_a_spurious_fault(self, far_page):
        kernel, process = far_page
        frame = process.mm.frames[self.FAR]
        kernel.touch(process, self.FAR, is_write=True)
        assert process.mm.frames[self.FAR] is frame
        assert process.mm.tree.translate(self.FAR).pfn == frame.pfn

    def test_munmap_unmaps_and_frees_the_page(self, far_page):
        kernel, process = far_page
        used = kernel.physmem.total_used_bytes()
        kernel.sys_munmap(process, self.FAR, PAGE_SIZE)
        assert self.FAR not in process.mm.frames
        walker = HardwareWalker(process.mm.tree)
        for socket in (0, 1):
            assert walker.walk(self.FAR, socket, set_ad_bits=False).faulted
        # The data page and both copies of the three tables below the root.
        assert used - kernel.physmem.total_used_bytes() == 7 * PAGE_SIZE

"""MitosisPagingOps: eager semantic replication through PV-Ops."""

import pytest

from repro.errors import ReplicationError
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.ring import replica_on_socket, ring_members
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import (
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_USER,
    PTE_WRITABLE,
    pte_pfn,
    pte_present,
)
from repro.paging.walker import HardwareWalker
from repro.units import PAGE_SIZE
from repro.lint.sanitizer import simulated_hardware

FLAGS = PTE_WRITABLE | PTE_USER


@pytest.fixture
def tree4(physmem4):
    """A tree replicated on all four sockets from birth."""
    ops = MitosisPagingOps(PageTablePageCache(physmem4), mask=frozenset({0, 1, 2, 3}))
    return PageTableTree(ops)


class TestAllocation:
    def test_empty_mask_rejected(self, physmem4):
        with pytest.raises(ReplicationError):
            MitosisPagingOps(PageTablePageCache(physmem4), mask=frozenset())

    def test_root_replicated_on_all_mask_sockets(self, tree4):
        members = ring_members(tree4, tree4.root)
        assert sorted(m.node for m in members) == [0, 1, 2, 3]

    def test_primary_is_lowest_socket(self, tree4):
        assert tree4.root.node == 0
        assert not tree4.root.is_replica

    def test_map_allocates_replicated_chain(self, tree4, physmem4):
        tree4.map_page(0x1000, physmem4.alloc_frame(0).pfn, FLAGS)
        # 4 levels x 4 sockets
        assert tree4.total_table_count() == 16
        assert tree4.table_count() == 4


class TestSemanticReplication:
    def test_leaf_values_identical_everywhere(self, tree4, physmem4):
        pfn = physmem4.alloc_frame(2).pfn
        tree4.map_page(0x1000, pfn, FLAGS)
        leaf = tree4.leaf_location(0x1000)
        for member in ring_members(tree4, leaf.page):
            assert pte_pfn(member.entries[leaf.index]) == pfn

    def test_upper_levels_point_to_local_children(self, tree4, physmem4):
        """§2.3: bytewise copying would be wrong — each replica's non-leaf
        entries must point to its own socket's lower tables."""
        tree4.map_page(0x1000, physmem4.alloc_frame(0).pfn, FLAGS)
        for root_copy in ring_members(tree4, tree4.root):
            page = root_copy
            while page.level > 1:
                entry = next(e for e in page.entries if pte_present(e))
                child = tree4.registry[pte_pfn(entry)]
                assert child.node == root_copy.node
                page = child

    def test_walks_from_each_socket_stay_local(self, tree4, physmem4):
        tree4.map_page(0x1000, physmem4.alloc_frame(3).pfn, FLAGS)
        walker = HardwareWalker(tree4)
        for socket in range(4):
            result = walker.walk(0x1000, socket=socket)
            assert all(a.node == socket for a in result.accesses)
            assert result.translation is not None

    def test_unmap_propagates_to_all_replicas(self, tree4, physmem4):
        tree4.map_page(0x1000, physmem4.alloc_frame(0).pfn, FLAGS)
        leaf = tree4.leaf_location(0x1000)
        members = ring_members(tree4, leaf.page)
        tree4.unmap_page(0x1000)
        assert all(not pte_present(m.entries[leaf.index]) for m in members)

    def test_release_frees_whole_ring(self, tree4, physmem4):
        tree4.map_page(0x1000, physmem4.alloc_frame(0).pfn, FLAGS)
        total = tree4.total_table_count()
        tree4.unmap_page(0x1000)  # GC empties the chain
        assert tree4.total_table_count() == 4  # only the root ring remains
        assert total == 16

    def test_valid_counts_match_across_replicas(self, tree4, physmem4):
        for i in range(5):
            tree4.map_page(i * PAGE_SIZE, physmem4.alloc_frame(0).pfn, FLAGS)
        for page in tree4.iter_tables():
            counts = {m.valid_count for m in ring_members(tree4, page)}
            assert len(counts) == 1

    def test_update_cost_is_2n_not_4n(self, tree4, physmem4):
        """Fig. 8: one leaf PTE write = N entry writes + N ring hops."""
        tree4.map_page(0x1000, physmem4.alloc_frame(0).pfn, FLAGS)
        before_writes = tree4.ops.stats.pte_writes
        before_hops = tree4.ops.stats.ring_hops
        tree4.protect_range(0x1000, 0x2000, PTE_USER)
        # protect = one local read + one PTE write: N writes + N hops.
        assert tree4.ops.stats.pte_writes - before_writes == 4
        assert tree4.ops.stats.ring_hops - before_hops == 4


class TestAccessedDirty:
    def test_hardware_bits_land_in_walked_replica_only(self, tree4, physmem4):
        tree4.map_page(0x1000, physmem4.alloc_frame(0).pfn, FLAGS)
        HardwareWalker(tree4).walk(0x1000, socket=2, is_write=True)
        leaf = tree4.leaf_location(0x1000)
        for member in ring_members(tree4, leaf.page):
            has_bits = bool(member.entries[leaf.index] & (PTE_ACCESSED | PTE_DIRTY))
            assert has_bits == (member.node == 2)

    def test_os_read_ors_bits_from_all_replicas(self, tree4, physmem4):
        tree4.map_page(0x1000, physmem4.alloc_frame(0).pfn, FLAGS)
        HardwareWalker(tree4).walk(0x1000, socket=3, is_write=True)
        leaf = tree4.leaf_location(0x1000)
        entry = tree4.ops.read_pte(tree4, leaf.page, leaf.index)
        assert entry & PTE_ACCESSED
        assert entry & PTE_DIRTY

    def test_clear_ad_resets_every_replica(self, tree4, physmem4):
        tree4.map_page(0x1000, physmem4.alloc_frame(0).pfn, FLAGS)
        walker = HardwareWalker(tree4)
        for socket in range(4):
            walker.walk(0x1000, socket=socket, is_write=True)
        leaf = tree4.leaf_location(0x1000)
        tree4.ops.clear_ad_bits(tree4, leaf.page, leaf.index)
        entry = tree4.ops.read_pte(tree4, leaf.page, leaf.index)
        assert not entry & (PTE_ACCESSED | PTE_DIRTY)

    def test_stale_bit_would_resurrect_without_clear_everywhere(self, tree4, physmem4):
        """Clearing only the primary must NOT be enough — guards against
        regressing to the naive implementation."""
        tree4.map_page(0x1000, physmem4.alloc_frame(0).pfn, FLAGS)
        HardwareWalker(tree4).walk(0x1000, socket=1, is_write=False)
        leaf = tree4.leaf_location(0x1000)
        with simulated_hardware():
            leaf.page.entries[leaf.index] &= ~PTE_ACCESSED  # naive primary-only clear
        assert tree4.ops.read_pte(tree4, leaf.page, leaf.index) & PTE_ACCESSED


class TestCr3:
    def test_cr3_local_replica_per_socket(self, tree4):
        for socket in range(4):
            pfn = tree4.ops.root_pfn_for_socket(tree4, socket)
            assert tree4.registry[pfn].node == socket

    def test_cr3_for_unmasked_socket_falls_back_to_primary(self, physmem4):
        ops = MitosisPagingOps(PageTablePageCache(physmem4), mask=frozenset({1, 2}))
        tree = PageTableTree(ops)
        assert tree.ops.root_pfn_for_socket(tree, 0) == tree.root.pfn

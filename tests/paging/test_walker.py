"""HardwareWalker: per-level accesses, NUMA attribution, A/D side effects."""

import pytest

from repro.kernel.policy import FixedNodePolicy
from repro.kernel.pvops import NativePagingOps
from repro.mem.pagecache import PageTablePageCache
from repro.paging.levels import GEOMETRY_5LEVEL
from repro.paging.pagetable import PageTableTree, Translation
from repro.paging.pte import PTE_USER, PTE_WRITABLE, pte_accessed, pte_dirty
from repro.paging.walker import HardwareWalker, walk_into
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER


@pytest.fixture
def tree_remote_pt(physmem2):
    """Page-tables forced onto socket 1 (the paper's RP configurations)."""
    ops = NativePagingOps(PageTablePageCache(physmem2), pt_policy=FixedNodePolicy(1))
    return PageTableTree(ops, node_hint=1)


class TestWalk:
    def test_full_walk_touches_four_levels(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        walker = HardwareWalker(tree_remote_pt)
        result = walker.walk(0x1000, socket=0)
        assert [a.level for a in result.accesses] == [4, 3, 2, 1]
        assert result.translation.pfn == pfn

    def test_walk_reports_pt_node_not_data_node(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn  # data local to socket 0
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        result = HardwareWalker(tree_remote_pt).walk(0x1000, socket=0)
        # every walk access goes to socket 1 where the tables live
        assert all(a.node == 1 for a in result.accesses)

    def test_walk_unmapped_faults(self, tree_remote_pt):
        result = HardwareWalker(tree_remote_pt).walk(0x9000, socket=0)
        assert result.faulted
        assert result.fault_va == 0x9000
        assert result.translation is None

    def test_huge_walk_stops_at_l2(self, tree_remote_pt, physmem2):
        frame = physmem2.alloc_huge_frame(0)
        tree_remote_pt.map_page(0, frame.pfn, FLAGS, huge=True)
        result = HardwareWalker(tree_remote_pt).walk(3 * PAGE_SIZE, socket=0)
        assert [a.level for a in result.accesses] == [4, 3, 2]
        assert result.translation.pfn == frame.pfn + 3
        assert result.translation.page_size == HUGE_PAGE_SIZE

    def test_start_override_skips_levels(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        walker = HardwareWalker(tree_remote_pt)
        full = walker.walk(0x1000, socket=0)
        leaf_table_pfn = full.accesses[-1].pfn
        leaf_table = tree_remote_pt.registry[leaf_table_pfn]
        resumed = walker.walk(0x1000, socket=0, start=(leaf_table, 1))
        assert len(resumed.accesses) == 1
        assert resumed.translation.pfn == pfn

    def test_line_addresses_are_cacheline_aligned(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        result = HardwareWalker(tree_remote_pt).walk(0x1000, socket=0)
        assert all(a.line_addr % 64 == 0 for a in result.accesses)

    def test_nearby_vas_share_leaf_line(self, tree_remote_pt, physmem2):
        """8 PTEs per cache line: pages 0..7 of a region share one line."""
        for i in range(8):
            tree_remote_pt.map_page(i * PAGE_SIZE, physmem2.alloc_frame(0).pfn, FLAGS)
        walker = HardwareWalker(tree_remote_pt)
        lines = {walker.walk(i * PAGE_SIZE, socket=0).accesses[-1].line_addr for i in range(8)}
        assert len(lines) == 1
        far = walker.walk(8 * PAGE_SIZE, socket=0)
        assert far.faulted or far.accesses[-1].line_addr not in lines


class TestWalkInto:
    """walk_into is the batch engine's allocation-free twin of walk():
    same traversal, same per-level report, same A/D stores — just written
    into caller-owned arrays instead of LevelAccess/WalkResult objects.
    The caller resolves the start: a PSC hit's (page, level), or the
    socket's CR3 root at the tree's root level."""

    def _into(self, walker, va, socket, is_write=False, start=None):
        tree = walker.tree
        if start is None:
            root = tree.registry[tree.ops.root_pfn_for_socket(tree, socket)]
            start = (root, tree.geometry.root_level)
        out = ([0] * 6, [0] * 6, [0] * 6, [0] * 6)
        n, translation = walk_into(tree.registry, *start, va, is_write, *out)
        rows = [(out[0][j], out[1][j], out[2][j], out[3][j]) for j in range(n)]
        return rows, translation

    @staticmethod
    def _reference_rows(result):
        return [(a.level, a.pfn, a.node, a.line_addr) for a in result.accesses]

    def test_matches_reference_walk_4k(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        walker = HardwareWalker(tree_remote_pt)
        rows, translation = self._into(walker, 0x1000, 0)
        reference = walker.walk(0x1000, socket=0)
        assert rows == self._reference_rows(reference)
        assert translation == reference.translation
        assert type(translation) is Translation

    def test_matches_reference_walk_huge(self, tree_remote_pt, physmem2):
        frame = physmem2.alloc_huge_frame(0)
        tree_remote_pt.map_page(0, frame.pfn, FLAGS, huge=True)
        walker = HardwareWalker(tree_remote_pt)
        rows, translation = self._into(walker, 3 * PAGE_SIZE, 0)
        reference = walker.walk(3 * PAGE_SIZE, socket=0)
        assert rows == self._reference_rows(reference)
        assert translation == reference.translation
        assert type(translation) is Translation
        assert translation.pfn == frame.pfn + 3
        assert translation.page_size == HUGE_PAGE_SIZE

    @pytest.mark.parametrize("huge", [False, True])
    def test_matches_reference_walk_5_level(self, physmem2, huge):
        ops = NativePagingOps(PageTablePageCache(physmem2), pt_policy=FixedNodePolicy(1))
        tree = PageTableTree(ops, node_hint=1, geometry=GEOMETRY_5LEVEL)
        va = (1 << 50) + 5 * HUGE_PAGE_SIZE  # above the 4-level 48-bit space
        frame = physmem2.alloc_huge_frame(0) if huge else physmem2.alloc_frame(0)
        tree.map_page(va, frame.pfn, FLAGS, huge=huge)
        walker = HardwareWalker(tree)
        probe = va + 7 * PAGE_SIZE if huge else va
        rows, translation = self._into(walker, probe, 0, is_write=True)
        reference = walker.walk(probe, socket=0, is_write=True)
        assert rows == self._reference_rows(reference)
        assert [row[0] for row in rows] == ([5, 4, 3, 2] if huge else [5, 4, 3, 2, 1])
        assert translation == reference.translation
        assert type(translation) is Translation
        assert translation.pfn == frame.pfn + (7 if huge else 0)

    def test_fault_reports_partial_levels(self, tree_remote_pt):
        walker = HardwareWalker(tree_remote_pt)
        rows, translation = self._into(walker, 0x9000, 0)
        reference = walker.walk(0x9000, socket=0)
        assert translation is None
        assert reference.faulted
        assert rows == self._reference_rows(reference)

    def test_start_override_skips_levels(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        walker = HardwareWalker(tree_remote_pt)
        leaf_table_pfn = walker.walk(0x1000, socket=0).accesses[-1].pfn
        leaf_table = tree_remote_pt.registry[leaf_table_pfn]
        rows, translation = self._into(walker, 0x1000, 0, start=(leaf_table, 1))
        assert len(rows) == 1
        assert translation.pfn == pfn

    def test_write_walk_sets_ad_bits_like_reference(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        walker = HardwareWalker(tree_remote_pt)
        self._into(walker, 0x1000, 0, is_write=True)
        leaf = tree_remote_pt.leaf_location(0x1000)
        entry = leaf.page.entries[leaf.index]
        assert pte_accessed(entry)
        assert pte_dirty(entry)

    def test_ad_updates_bypass_pvops(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        writes_before = tree_remote_pt.ops.stats.pte_writes
        walker = HardwareWalker(tree_remote_pt)
        self._into(walker, 0x1000, 0, is_write=True)
        assert tree_remote_pt.ops.stats.pte_writes == writes_before


class TestAdBits:
    def test_read_walk_sets_accessed_not_dirty(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        HardwareWalker(tree_remote_pt).walk(0x1000, socket=0, is_write=False)
        leaf = tree_remote_pt.leaf_location(0x1000)
        entry = leaf.page.entries[leaf.index]
        assert pte_accessed(entry)
        assert not pte_dirty(entry)

    def test_write_walk_sets_dirty(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        HardwareWalker(tree_remote_pt).walk(0x1000, socket=0, is_write=True)
        leaf = tree_remote_pt.leaf_location(0x1000)
        assert pte_dirty(leaf.page.entries[leaf.index])

    def test_ad_updates_bypass_pvops(self, tree_remote_pt, physmem2):
        """Hardware A/D writes must NOT go through the ops interface —
        that's the whole §5.4 problem."""
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        writes_before = tree_remote_pt.ops.stats.pte_writes
        HardwareWalker(tree_remote_pt).walk(0x1000, socket=0, is_write=True)
        assert tree_remote_pt.ops.stats.pte_writes == writes_before

    def test_set_ad_bits_can_be_disabled(self, tree_remote_pt, physmem2):
        pfn = physmem2.alloc_frame(0).pfn
        tree_remote_pt.map_page(0x1000, pfn, FLAGS)
        HardwareWalker(tree_remote_pt).walk(0x1000, socket=0, set_ad_bits=False)
        leaf = tree_remote_pt.leaf_location(0x1000)
        assert not pte_accessed(leaf.page.entries[leaf.index])

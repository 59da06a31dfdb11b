"""PageTableTree: map/unmap/protect/translate through the native backend."""

import pytest

from repro.errors import InvalidMappingError
from repro.kernel.policy import FixedNodePolicy
from repro.kernel.pvops import NativePagingOps
from repro.mem.pagecache import PageTablePageCache
from repro.paging.levels import GEOMETRY_5LEVEL
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_PRESENT, PTE_USER, PTE_WRITABLE
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER


@pytest.fixture
def tree(physmem2):
    ops = NativePagingOps(PageTablePageCache(physmem2), pt_policy=FixedNodePolicy(0))
    return PageTableTree(ops)


@pytest.fixture
def data_pfn(physmem2):
    return physmem2.alloc_frame(0).pfn


class TestMapTranslate:
    def test_map_then_translate(self, tree, data_pfn):
        tree.map_page(0x1000, data_pfn, FLAGS)
        tr = tree.translate(0x1000)
        assert tr is not None
        assert tr.pfn == data_pfn
        assert tr.level == 1
        assert tr.flags & PTE_PRESENT

    def test_translate_unmapped_is_none(self, tree):
        assert tree.translate(0x1000) is None

    def test_offsets_within_page_share_translation(self, tree, data_pfn):
        tree.map_page(0x4000, data_pfn, FLAGS)
        assert tree.translate(0x4FFF).pfn == data_pfn

    def test_intermediate_levels_created_once(self, tree, data_pfn, physmem2):
        tree.map_page(0x1000, data_pfn, FLAGS)
        count_after_first = tree.table_count()
        other = physmem2.alloc_frame(0).pfn
        tree.map_page(0x2000, other, FLAGS)
        assert tree.table_count() == count_after_first  # same L1 table reused

    def test_distant_vas_create_separate_subtrees(self, tree, data_pfn, physmem2):
        tree.map_page(0x1000, data_pfn, FLAGS)
        far = 1 << 39  # different L4 slot
        tree.map_page(far, physmem2.alloc_frame(0).pfn, FLAGS)
        assert tree.table_count() == 1 + 3 + 3  # root + two full chains

    def test_double_map_rejected(self, tree, data_pfn):
        tree.map_page(0x1000, data_pfn, FLAGS)
        with pytest.raises(InvalidMappingError):
            tree.map_page(0x1000, data_pfn, FLAGS)

    def test_misaligned_va_rejected(self, tree, data_pfn):
        with pytest.raises(InvalidMappingError):
            tree.map_page(0x1001, data_pfn, FLAGS)

    def test_node_hint_places_tables(self, physmem2):
        ops = NativePagingOps(PageTablePageCache(physmem2))  # first-touch
        tree = PageTableTree(ops, node_hint=1)
        pfn = physmem2.alloc_frame(0).pfn
        tree.map_page(0x1000, pfn, FLAGS, node_hint=1)
        assert all(page.node == 1 for page in tree.iter_tables())


class TestUnmap:
    def test_unmap_returns_old_translation(self, tree, data_pfn):
        tree.map_page(0x1000, data_pfn, FLAGS)
        removed = tree.unmap_page(0x1000)
        assert removed.pfn == data_pfn
        assert tree.translate(0x1000) is None

    def test_unmap_unmapped_rejected(self, tree):
        with pytest.raises(InvalidMappingError):
            tree.unmap_page(0x1000)

    def test_empty_tables_garbage_collected(self, tree, data_pfn):
        tree.map_page(0x1000, data_pfn, FLAGS)
        assert tree.table_count() == 4
        tree.unmap_page(0x1000)
        assert tree.table_count() == 1  # only the root remains

    def test_partial_unmap_keeps_shared_tables(self, tree, data_pfn, physmem2):
        tree.map_page(0x1000, data_pfn, FLAGS)
        tree.map_page(0x2000, physmem2.alloc_frame(0).pfn, FLAGS)
        tree.unmap_page(0x1000)
        assert tree.translate(0x2000) is not None
        assert tree.table_count() == 4


class TestProtect:
    def test_protect_changes_flags_keeps_pfn(self, tree, data_pfn):
        tree.map_page(0x1000, data_pfn, FLAGS)
        tree.protect_range(0x1000, 0x2000, PTE_USER)  # drop writable
        tr = tree.translate(0x1000)
        assert tr.pfn == data_pfn
        assert not tr.flags & PTE_WRITABLE
        assert tr.flags & PTE_PRESENT

    def test_protect_partial_huge_leaf_rejected(self, tree, physmem2):
        tree.map_page(HUGE_PAGE_SIZE, physmem2.alloc_huge_frame(0).pfn, FLAGS, huge=True)
        writes = tree.ops.stats.pte_writes
        with pytest.raises(InvalidMappingError):
            tree.protect_range(HUGE_PAGE_SIZE, HUGE_PAGE_SIZE + PAGE_SIZE, PTE_USER)
        assert tree.ops.stats.pte_writes == writes
        assert tree.translate(HUGE_PAGE_SIZE).flags & PTE_WRITABLE

    def test_protect_range_covers_one_leaf_table_and_skips_holes(self, tree, physmem2):
        for va in (0x1000, 0x3000, 0x4000, HUGE_PAGE_SIZE):
            tree.map_page(va, physmem2.alloc_frame(0).pfn, FLAGS)
        before = tree.ops.stats.snapshot()
        assert tree.protect_range(0, 1 << 40, PTE_USER) == HUGE_PAGE_SIZE
        delta = tree.ops.stats.delta(before)
        assert (delta.pte_reads, delta.pte_writes) == (3, 3)
        assert not tree.translate(0x4000).flags & PTE_WRITABLE
        assert tree.translate(HUGE_PAGE_SIZE).flags & PTE_WRITABLE  # the next table

    def test_protect_range_skips_every_empty_slot_of_a_table(self, tree, physmem2):
        for va in (0x1000, 5 << 30):
            tree.map_page(va, physmem2.alloc_frame(0).pfn, FLAGS)
        # L3 slots 1-4 are empty: the next descent starts at slot 5.
        assert tree.protect_range(1 << 30, 1 << 40, PTE_USER) == 5 << 30
        assert tree.protect_range(6 << 30, 1 << 40, PTE_USER) == 1 << 39  # end of the L3 table
        assert tree.protect_range(1 << 39, 1 << 40, PTE_USER) == 1 << 40  # capped at end
        assert tree.translate(5 << 30).flags & PTE_WRITABLE


class TestUnmapRange:
    def test_last_leaf_released_after_the_collection(self, tree, physmem2):
        for va in (0x1000, 0x2000, 0x5000):
            tree.map_page(va, physmem2.alloc_frame(0).pfn, FLAGS)
        events = []
        release_table = tree.ops.release_table

        def record_table(owner, page):
            events.append(("table", page.level))
            release_table(owner, page)

        tree.ops.release_table = record_table
        resume = tree.unmap_range(0, 1 << 40, lambda va: events.append(("leaf", va)))
        assert resume == HUGE_PAGE_SIZE
        assert events == [
            ("leaf", 0x1000),
            ("leaf", 0x2000),
            ("table", 1),
            ("table", 2),
            ("table", 3),
            ("leaf", 0x5000),
        ]
        assert tree.table_count() == 1

    def test_partial_range_keeps_the_table(self, tree, physmem2):
        for va in (0x1000, 0x2000, 0x5000):
            tree.map_page(va, physmem2.alloc_frame(0).pfn, FLAGS)
        released = []
        assert tree.unmap_range(0x2000, 0x6000, released.append) == 0x6000
        assert released == [0x2000, 0x5000]
        assert tree.translate(0x1000) is not None
        assert tree.table_count() == 4

    def test_huge_leaf_is_a_one_entry_run(self, tree, physmem2):
        tree.map_page(HUGE_PAGE_SIZE, physmem2.alloc_huge_frame(0).pfn, FLAGS, huge=True)
        released = []
        with pytest.raises(InvalidMappingError):
            tree.unmap_range(HUGE_PAGE_SIZE, 2 * HUGE_PAGE_SIZE - PAGE_SIZE, released.append)
        assert released == [] and tree.translate(HUGE_PAGE_SIZE) is not None
        writes = tree.ops.stats.pte_writes
        assert tree.unmap_range(HUGE_PAGE_SIZE, 1 << 40, released.append) == 2 * HUGE_PAGE_SIZE
        assert released == [HUGE_PAGE_SIZE]
        # The L2 entry, then the L3 and L4 pointers of the collected chain.
        assert tree.ops.stats.pte_writes - writes == 3
        assert tree.table_count() == 1


class TestHugePages:
    def test_map_huge_translates_whole_region(self, tree, physmem2):
        frame = physmem2.alloc_huge_frame(0)
        tree.map_page(HUGE_PAGE_SIZE, frame.pfn, FLAGS, huge=True)
        tr = tree.translate(HUGE_PAGE_SIZE)
        assert tr.level == 2
        assert tr.page_size == HUGE_PAGE_SIZE
        # An interior 4 KiB page translates to the corresponding sub-frame.
        inner = tree.translate(HUGE_PAGE_SIZE + 5 * PAGE_SIZE)
        assert inner.pfn == frame.pfn + 5

    def test_huge_requires_alignment(self, tree, physmem2):
        frame = physmem2.alloc_huge_frame(0)
        with pytest.raises(InvalidMappingError):
            tree.map_page(PAGE_SIZE, frame.pfn, FLAGS, huge=True)

    def test_small_under_huge_rejected(self, tree, physmem2, data_pfn):
        frame = physmem2.alloc_huge_frame(0)
        tree.map_page(0, frame.pfn, FLAGS, huge=True)
        with pytest.raises(InvalidMappingError):
            tree.map_page(PAGE_SIZE, data_pfn, FLAGS)

    def test_huge_uses_fewer_tables(self, tree, physmem2):
        frame = physmem2.alloc_huge_frame(0)
        tree.map_page(0, frame.pfn, FLAGS, huge=True)
        assert tree.table_count() == 3  # L4, L3, L2 — no L1

    def test_unmap_huge(self, tree, physmem2):
        frame = physmem2.alloc_huge_frame(0)
        tree.map_page(0, frame.pfn, FLAGS, huge=True)
        removed = tree.unmap_page(0)
        assert removed.level == 2
        assert tree.translate(0) is None

    def test_split_huge_page(self, tree, physmem2):
        frame = physmem2.alloc_huge_frame(0)
        tree.map_page(0, frame.pfn, FLAGS, huge=True)
        tree.split_huge_page(0)
        tr = tree.translate(7 * PAGE_SIZE)
        assert tr.level == 1
        assert tr.pfn == frame.pfn + 7

    def test_collapse_huge_page(self, tree, physmem2):
        frame = physmem2.alloc_huge_frame(0)
        tree.map_page(0, frame.pfn, FLAGS, huge=True)
        tree.split_huge_page(0)
        assert tree.collapse_huge_page(0)
        assert tree.translate(0).level == 2

    def test_collapse_refuses_partial_table(self, tree, data_pfn):
        tree.map_page(0x1000, data_pfn, FLAGS)
        assert not tree.collapse_huge_page(0x1000)

    def test_split_non_huge_rejected(self, tree, data_pfn):
        tree.map_page(0x1000, data_pfn, FLAGS)
        with pytest.raises(InvalidMappingError):
            tree.split_huge_page(0x1000)


class TestIteration:
    def test_iter_mappings_in_va_order(self, tree, physmem2):
        pfns = [physmem2.alloc_frame(0).pfn for _ in range(3)]
        for i, pfn in enumerate(pfns):
            tree.map_page((10 - i) * 0x1000, pfn, FLAGS)
        vas = [va for va, _ in tree.iter_mappings()]
        assert vas == sorted(vas)
        assert len(vas) == 3

    def test_five_level_geometry(self, physmem2):
        ops = NativePagingOps(PageTablePageCache(physmem2), pt_policy=FixedNodePolicy(0))
        tree = PageTableTree(ops, geometry=GEOMETRY_5LEVEL)
        pfn = physmem2.alloc_frame(0).pfn
        va = 1 << 50  # needs the 5th level
        tree.map_page(va, pfn, FLAGS)
        assert tree.translate(va).pfn == pfn
        assert tree.table_count() == 5

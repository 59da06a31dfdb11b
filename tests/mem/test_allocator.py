"""NodeAllocator: strict allocation, recycling, contiguity, bulk takes."""

import pytest

from repro.errors import OutOfMemoryError
from repro.inject.plan import SITE_ALLOCATOR_OOM, FaultPlan, FaultRule
from repro.mem.allocator import NodeAllocator
from repro.units import PAGES_PER_HUGE_PAGE


def make(frames=4096, base=0):
    return NodeAllocator(node=0, pfn_base=base, capacity_frames=frames)


class TestOrder0:
    def test_alloc_returns_owned_pfns(self):
        a = make(frames=16, base=100)
        pfns = [a.alloc_frame() for _ in range(16)]
        assert sorted(pfns) == list(range(100, 116))
        assert all(a.owns(p) for p in pfns)

    def test_exhaustion_raises(self):
        a = make(frames=2)
        a.alloc_frame()
        a.alloc_frame()
        with pytest.raises(OutOfMemoryError) as exc:
            a.alloc_frame()
        assert exc.value.node == 0

    def test_free_makes_frame_reusable(self):
        a = make(frames=1)
        pfn = a.alloc_frame()
        a.free_frame(pfn)
        assert a.alloc_frame() == pfn

    def test_used_free_accounting(self):
        a = make(frames=10)
        pfns = [a.alloc_frame() for _ in range(4)]
        assert a.used_frames == 4
        assert a.free_frames == 6
        a.free_frame(pfns[0])
        assert a.used_frames == 3

    def test_free_foreign_pfn_rejected(self):
        a = make(frames=4, base=1000)
        with pytest.raises(ValueError):
            a.free_frame(0)

    def test_many_free_alloc_cycles_conserve_capacity(self):
        a = make(frames=64)
        for _ in range(10):
            pfns = [a.alloc_frame() for _ in range(64)]
            with pytest.raises(OutOfMemoryError):
                a.alloc_frame()
            for p in pfns:
                a.free_frame(p)
        assert a.used_frames == 0


class TestOrder9:
    def test_huge_alloc_is_aligned(self):
        a = make(frames=PAGES_PER_HUGE_PAGE * 4)
        head = a.alloc_huge()
        assert head % PAGES_PER_HUGE_PAGE == 0
        assert a.used_frames == PAGES_PER_HUGE_PAGE

    def test_alignment_gap_is_recycled_as_small_frames(self):
        a = make(frames=PAGES_PER_HUGE_PAGE * 3)
        a.alloc_frame()  # misalign the bump pointer
        a.alloc_huge()
        # The 511 skipped frames must be allocatable as order-0.
        got = [a.alloc_frame() for _ in range(PAGES_PER_HUGE_PAGE - 1)]
        assert len(set(got)) == PAGES_PER_HUGE_PAGE - 1

    def test_huge_free_and_realloc(self):
        a = make(frames=PAGES_PER_HUGE_PAGE * 2)
        head = a.alloc_huge()
        a.free_huge(head)
        assert a.alloc_huge() == head

    def test_free_huge_requires_alignment(self):
        a = make(frames=PAGES_PER_HUGE_PAGE * 2)
        a.alloc_huge()
        with pytest.raises(ValueError):
            a.free_huge(1)

    def test_huge_blocks_available_counts_bump_and_freed(self):
        a = make(frames=PAGES_PER_HUGE_PAGE * 4)
        assert a.huge_blocks_available() == 4
        head = a.alloc_huge()
        assert a.huge_blocks_available() == 3
        a.free_huge(head)
        assert a.huge_blocks_available() == 4

    def test_huge_exhaustion_raises_even_with_small_free(self):
        a = make(frames=PAGES_PER_HUGE_PAGE)
        head = a.alloc_huge()
        a.free_huge(head)
        a.alloc_huge()
        # Free a single interior frame: plenty of order-0 memory now, but
        # alloc_huge must still fail (freed smalls never re-coalesce).
        with pytest.raises(OutOfMemoryError):
            a.alloc_huge()


class TestBreakHugeBlock:
    def test_break_pins_head_and_frees_tail(self):
        a = make(frames=PAGES_PER_HUGE_PAGE * 2)
        head = a.break_huge_block()
        assert head % PAGES_PER_HUGE_PAGE == 0
        assert a.used_frames == 1  # only the pinned head
        assert a.huge_blocks_available() == 1

    def test_break_all_blocks_kills_huge_allocation(self):
        a = make(frames=PAGES_PER_HUGE_PAGE * 3)
        for _ in range(3):
            a.break_huge_block()
        with pytest.raises(OutOfMemoryError):
            a.alloc_huge()
        # ...but nearly all memory is still there for order-0.
        assert a.free_frames == 3 * (PAGES_PER_HUGE_PAGE - 1)


class TestBulkTake:
    def test_sources_in_alloc_frame_order(self):
        """The last free range, then a split free huge block, then the
        bump pointer: the PFNs single allocations return, in order."""
        sides = []
        for _ in range(2):
            a = make(frames=PAGES_PER_HUGE_PAGE * 3)
            head = a.alloc_huge()
            small = [a.alloc_frame() for _ in range(4)]
            a.free_huge(head)
            a.free_frame(small[1])
            a.free_frame(small[2])
            sides.append(a)
        bulk, single = sides
        count = 2 + PAGES_PER_HUGE_PAGE + 3
        pfns = bulk.alloc_frames(count)
        assert pfns == [single.alloc_frame() for _ in range(count)]
        assert pfns[:2] == [513, 514]
        assert pfns[2 : 2 + PAGES_PER_HUGE_PAGE] == list(range(PAGES_PER_HUGE_PAGE))
        assert pfns[-3:] == [516, 517, 518]
        assert bulk.used_frames == single.used_frames == 2 + count
        assert bulk.alloc_frame() == single.alloc_frame() == 519

    def test_short_take_on_exhaustion(self):
        a = make(frames=8)
        a.alloc_frame()
        assert a.alloc_frames(10) == list(range(1, 8))
        assert a.free_frames == 0
        assert a.alloc_frames(3) == []

    def test_stops_at_the_first_refused_frame(self):
        plan = FaultPlan(rules=[FaultRule(site=SITE_ALLOCATOR_OOM, on_calls={4, 6})])
        a = make(frames=16)
        a.fault_plan = plan
        assert a.alloc_frames(10) == [0, 1, 2]
        assert plan.rules[0].calls == 4  # the refused frame's call included
        assert a.alloc_frames(10) == [3]
        assert a.alloc_frames(2) == [4, 5]
        assert plan.rules[0].calls == 8
        assert len(plan.log) == 2

    def test_plan_consulted_up_to_the_frame_that_finds_the_node_empty(self):
        plan = FaultPlan(rules=[FaultRule(site=SITE_ALLOCATOR_OOM, on_calls={99})])
        a = make(frames=4)
        a.fault_plan = plan
        assert a.alloc_frames(10) == [0, 1, 2, 3]
        assert plan.rules[0].calls == 5  # four frames, then the empty node

    def test_zero_count_consults_nothing(self):
        plan = FaultPlan(rules=[FaultRule(site=SITE_ALLOCATOR_OOM, on_calls={1})])
        a = make(frames=4)
        a.fault_plan = plan
        assert a.alloc_frames(0) == []
        assert plan.rules[0].calls == 0

"""Page-fault handler: demand paging, placement, THP decisions."""

import pytest

from repro.errors import OutOfMemoryError, ProtectionFault, SegmentationFault
from repro.inject.plan import FaultPlan, install_fault_plan, uninstall_fault_plan
from repro.kernel.policy import FixedNodePolicy, InterleavePolicy
from repro.kernel.vma import PROT_DEFAULT
from repro.mem.allocator import HUGE_ORDER
from repro.mem.fragmentation import FragmentationInjector
from repro.paging.pte import PTE_USER
from repro.units import HUGE_PAGE_SIZE, MIB, PAGE_SIZE


@pytest.fixture
def proc(kernel2):
    process = kernel2.create_process("t", socket=0)
    kernel2.sys_mmap(process, 4 * MIB, name="arena")
    return process


class TestDemandPaging:
    def test_fault_maps_one_page(self, kernel2, proc):
        result = kernel2.fault_handler.handle(proc, 0x1000, socket=0)
        assert result.did_map
        assert result.mapped_bytes == PAGE_SIZE
        assert proc.mm.tree.translate(0x1000) is not None

    def test_fault_outside_vma_is_segfault(self, kernel2, proc):
        with pytest.raises(SegmentationFault):
            kernel2.fault_handler.handle(proc, 1 << 40, socket=0)

    def test_second_fault_is_spurious(self, kernel2, proc):
        kernel2.fault_handler.handle(proc, 0x1000, socket=0)
        result = kernel2.fault_handler.handle(proc, 0x1000, socket=0)
        assert not result.did_map
        assert result.mapped_bytes == 0

    def test_write_to_readonly_raises_protection_fault(self, kernel2):
        process = kernel2.create_process("ro", socket=0)
        va = kernel2.sys_mmap(process, PAGE_SIZE, prot=PTE_USER).value
        kernel2.fault_handler.handle(process, va, socket=0, is_write=False)
        with pytest.raises(ProtectionFault):
            kernel2.fault_handler.handle(process, va, socket=0, is_write=True)

    def test_first_touch_places_on_faulting_socket(self, kernel2, proc):
        r0 = kernel2.fault_handler.handle(proc, 0x1000, socket=0)
        r1 = kernel2.fault_handler.handle(proc, 0x2000, socket=1)
        assert proc.mm.frames[0x1000].node == 0
        assert proc.mm.frames[0x2000].node == 1
        assert r0.did_map and r1.did_map

    def test_vma_policy_overrides_process_policy(self, kernel2):
        process = kernel2.create_process("p", socket=0)
        va = kernel2.sys_mmap(process, PAGE_SIZE, data_policy=FixedNodePolicy(1)).value
        kernel2.fault_handler.handle(process, va, socket=0)
        assert process.mm.frames[va].node == 1

    def test_interleave_process_policy(self, kernel2):
        process = kernel2.create_process("p", socket=0, data_policy=InterleavePolicy((0, 1)))
        va = kernel2.sys_mmap(process, 4 * PAGE_SIZE).value
        nodes = []
        for i in range(4):
            kernel2.fault_handler.handle(process, va + i * PAGE_SIZE, socket=0)
            nodes.append(process.mm.frames[va + i * PAGE_SIZE].node)
        assert nodes == [0, 1, 0, 1]

    def test_work_counters_report_zeroing(self, kernel2, proc):
        result = kernel2.fault_handler.handle(proc, 0x1000, socket=0)
        assert result.work.pages_zeroed_4k == 1
        assert result.work.pages_zeroed_2m == 0


class TestThpFaults:
    @pytest.fixture
    def thp_proc(self, kernel2):
        kernel2.sysctl.thp_enabled = True
        process = kernel2.create_process("thp", socket=0)
        kernel2.sys_mmap(process, 8 * MIB, name="arena")
        return process

    def test_aligned_fault_maps_huge(self, kernel2, thp_proc):
        va = thp_proc.mm.vmas.in_range(0, 1 << 40)[0].start
        # mmap aligned the region to 2 MiB because THP is on
        assert va % HUGE_PAGE_SIZE == 0
        result = kernel2.fault_handler.handle(thp_proc, va, socket=0, allow_huge=True)
        assert result.huge
        assert result.mapped_bytes == HUGE_PAGE_SIZE
        assert thp_proc.mm.tree.translate(va).level == 2

    def test_frame_at_returns_the_covering_leaf(self, kernel2, thp_proc):
        """``mm.frames`` holds each leaf's ``Frame``; ``frame_at`` answers
        with the leaf VA it covers from, for both page sizes."""
        va = thp_proc.mm.vmas.in_range(0, 1 << 40)[0].start
        handler = kernel2.fault_handler
        handler.handle(thp_proc, va, socket=0, allow_huge=True)
        small = va + HUGE_PAGE_SIZE
        handler.handle(thp_proc, small, socket=1, allow_huge=False)
        mm = thp_proc.mm
        huge_frame, small_frame = mm.frames[va], mm.frames[small]
        assert huge_frame.order == HUGE_ORDER and small_frame.order == 0
        assert mm.frame_at(va + 5 * PAGE_SIZE + 17) == (va, huge_frame)
        assert mm.frame_at(small + 17) == (small, small_frame)
        assert mm.frame_at(small + PAGE_SIZE) is None
        assert mm.mapped_bytes() == HUGE_PAGE_SIZE + PAGE_SIZE

    def test_huge_disallowed_by_caller(self, kernel2, thp_proc):
        va = thp_proc.mm.vmas.in_range(0, 1 << 40)[0].start
        result = kernel2.fault_handler.handle(thp_proc, va, socket=0, allow_huge=False)
        assert not result.huge

    def test_fragmentation_falls_back_to_4k(self, kernel2, thp_proc):
        FragmentationInjector(kernel2.physmem).fragment_machine(1.0)
        va = thp_proc.mm.vmas.in_range(0, 1 << 40)[0].start
        result = kernel2.fault_handler.handle(thp_proc, va, socket=0, allow_huge=True)
        assert not result.huge
        assert result.mapped_bytes == PAGE_SIZE
        assert kernel2.thp.stats.fallbacks == 1

    def test_existing_4k_page_blocks_huge(self, kernel2, thp_proc):
        va = thp_proc.mm.vmas.in_range(0, 1 << 40)[0].start
        kernel2.fault_handler.handle(thp_proc, va + PAGE_SIZE, socket=0, allow_huge=False)
        result = kernel2.fault_handler.handle(thp_proc, va, socket=0, allow_huge=True)
        assert not result.huge

    def test_swapped_page_blocks_huge(self, kernel2, thp_proc):
        """A 2 MiB page must not cover a swapped-out page: its swap-in
        would then find the window already mapped."""
        va = thp_proc.mm.vmas.in_range(0, 1 << 40)[0].start
        kernel2.fault_handler.handle(thp_proc, va, socket=0, allow_huge=False)
        kernel2.swap.swap_out(thp_proc, va)
        result = kernel2.fault_handler.handle(thp_proc, va + PAGE_SIZE, socket=0, allow_huge=True)
        assert not result.huge
        swap_in = kernel2.fault_handler.handle(thp_proc, va, socket=0, allow_huge=True)
        assert swap_in.major
        assert thp_proc.mm.tree.translate(va) is not None

    def test_vma_edge_blocks_huge(self, kernel2):
        kernel2.sysctl.thp_enabled = True
        process = kernel2.create_process("edge", socket=0)
        # A VMA smaller than one huge page can never be THP-backed.
        va = kernel2.sys_mmap(process, MIB).value
        result = kernel2.fault_handler.handle(process, va, socket=0, allow_huge=True)
        assert not result.huge


def _used_frames(kernel) -> int:
    return sum(kernel.physmem.stats(node).used_frames for node in kernel.machine.node_ids())


class TestPageTableOomKeepsNoFrame:
    """A page-table OOM during a fault maps nothing, so it must leave no
    data frame allocated either: the frame taken before the descent goes
    back before the error propagates. That holds for a 4 KiB fault and
    for a THP fault's 2 MiB frame, which is counted as mapped only once
    its window is."""

    @staticmethod
    def _arena(kernel2, huge=False):
        """A fresh VMA (4 KiB, or two 2 MiB windows with THP on), then a
        plan that fails the next page-table page-cache refill: the first
        fault's descent."""
        if huge:
            kernel2.sysctl.thp_enabled = True
        process = kernel2.create_process("oom", socket=0)
        size = 2 * HUGE_PAGE_SIZE if huge else 16 * PAGE_SIZE
        va = kernel2.sys_mmap(process, size, use_huge=huge).value
        plan = FaultPlan(seed=1)
        plan.pagecache_oom(on_calls={1})
        install_fault_plan(kernel2, plan)
        return process, va, plan

    def test_failed_touch(self, kernel2):
        process, va, plan = self._arena(kernel2)
        used = _used_frames(kernel2)
        with pytest.raises(OutOfMemoryError):
            kernel2.touch(process, va, is_write=True)
        assert plan.log, "the plan never fired"
        assert _used_frames(kernel2) == used
        assert not process.mm.frames
        assert kernel2.fault_handler.faults_handled == 1  # the attempt counts

    def test_failed_populate(self, kernel2):
        process, va, plan = self._arena(kernel2)
        used = _used_frames(kernel2)
        with pytest.raises(OutOfMemoryError):
            kernel2.fault_handler.populate(process, va, va + 16 * PAGE_SIZE, socket=0)
        assert plan.log, "the plan never fired"
        assert _used_frames(kernel2) == used
        assert not process.mm.frames
        assert kernel2.fault_handler.faults_handled == 1

    @staticmethod
    def _assert_huge_fault_undone(kernel2, process, plan, used):
        assert plan.log, "the plan never fired"
        assert _used_frames(kernel2) == used
        assert not process.mm.frames
        assert kernel2.thp.stats.huge_mapped == 0
        assert kernel2.thp.stats.fallbacks == 0
        assert kernel2.fault_handler.faults_handled == 1

    @staticmethod
    def _assert_retry_maps_huge(kernel2, process, va):
        uninstall_fault_plan(kernel2)
        result = kernel2.touch(process, va, is_write=True)
        assert result.huge and result.mapped_bytes == HUGE_PAGE_SIZE
        assert process.mm.frames[va].order == HUGE_ORDER
        assert process.mm.tree.translate(va).level == 2
        assert kernel2.thp.stats.huge_mapped == 1

    def test_failed_huge_touch(self, kernel2):
        process, va, plan = self._arena(kernel2, huge=True)
        used = _used_frames(kernel2)
        with pytest.raises(OutOfMemoryError):
            kernel2.touch(process, va, is_write=True)
        self._assert_huge_fault_undone(kernel2, process, plan, used)
        self._assert_retry_maps_huge(kernel2, process, va)

    def test_failed_huge_populate(self, kernel2):
        process, va, plan = self._arena(kernel2, huge=True)
        used = _used_frames(kernel2)
        with pytest.raises(OutOfMemoryError):
            kernel2.fault_handler.populate(process, va, va + HUGE_PAGE_SIZE, socket=0)
        self._assert_huge_fault_undone(kernel2, process, plan, used)
        self._assert_retry_maps_huge(kernel2, process, va)

"""Page reclaim / swap: the A/D-bit consumer, and why §5.4 matters."""

import pytest

from repro.errors import InvalidMappingError, OutOfMemoryError
from repro.inject.plan import FaultPlan, install_fault_plan, uninstall_fault_plan
from repro.kernel.swap import SwapDevice
from repro.mem.allocator import HUGE_ORDER
from repro.paging.pte import PTE_ACCESSED
from repro.paging.walker import HardwareWalker
from repro.units import MIB, PAGE_SIZE


@pytest.fixture
def proc(kernel2):
    process = kernel2.create_process("swapper", socket=0)
    kernel2.sys_mmap(process, 16 * PAGE_SIZE, populate=True)
    return process


def touch(kernel, process, va, socket=0, is_write=False):
    HardwareWalker(process.mm.tree).walk(va, socket, is_write=is_write)


def _used_frames(kernel) -> int:
    return sum(kernel.physmem.stats(node).used_frames for node in kernel.machine.node_ids())


class TestSwapDevice:
    def test_slots_allocate_and_free(self):
        device = SwapDevice(capacity_slots=2)
        a = device.alloc_slot()
        b = device.alloc_slot()
        assert a != b
        assert device.used_slots == 2
        device.free_slot(a)
        assert device.alloc_slot() == a

    def test_exhaustion(self):
        from repro.errors import OutOfMemoryError

        device = SwapDevice(capacity_slots=1)
        device.alloc_slot()
        with pytest.raises(OutOfMemoryError):
            device.alloc_slot()


class TestIdleScan:
    def test_freshly_populated_pages_are_accessed(self, kernel2, proc):
        # populate() writes through the fault path but hardware A bits come
        # from walks; no walks yet -> everything idle.
        idle = kernel2.swap.scan_idle(proc)
        assert len(idle) == 16

    def test_touched_pages_get_second_chance(self, kernel2, proc):
        vas = sorted(proc.mm.frames)
        touch(kernel2, proc, vas[0])
        idle = kernel2.swap.scan_idle(proc)
        assert vas[0] not in idle
        assert kernel2.swap.stats.second_chances == 1
        # Untouched since the reset -> idle on the next pass.
        assert vas[0] in kernel2.swap.scan_idle(proc)

    def test_rewalked_pages_stay_resident(self, kernel2, proc):
        vas = sorted(proc.mm.frames)
        touch(kernel2, proc, vas[0])
        kernel2.swap.scan_idle(proc)
        touch(kernel2, proc, vas[0])  # re-touched between passes
        assert vas[0] not in kernel2.swap.scan_idle(proc)

    def test_dirty_detection(self, kernel2, proc):
        vas = sorted(proc.mm.frames)
        touch(kernel2, proc, vas[0], is_write=True)
        touch(kernel2, proc, vas[1], is_write=False)
        assert kernel2.swap.is_dirty(proc, vas[0])
        assert not kernel2.swap.is_dirty(proc, vas[1])


class TestSwapOutIn:
    def test_swap_out_unmaps_and_frees(self, kernel2, proc):
        va = sorted(proc.mm.frames)[0]
        used_before = kernel2.physmem.stats(0).used_frames
        kernel2.swap.swap_out(proc, va)
        assert proc.mm.tree.translate(va) is None
        assert va in proc.mm.swapped
        assert kernel2.physmem.stats(0).used_frames == used_before - 1
        assert kernel2.swap.device.used_slots == 1

    def test_major_fault_swaps_back_in(self, kernel2, proc):
        va = sorted(proc.mm.frames)[0]
        kernel2.swap.swap_out(proc, va)
        result = kernel2.fault_handler.handle(proc, va, socket=1)
        assert result.major
        assert result.io_cycles > 0
        assert proc.mm.tree.translate(va) is not None
        assert va not in proc.mm.swapped
        assert kernel2.swap.device.used_slots == 0
        # First-touch on the faulting socket, like any fresh allocation.
        assert proc.mm.frames[va].node == 1

    def test_protection_preserved_across_swap(self, kernel2, proc):
        from repro.paging.pte import PTE_USER, pte_writable

        va = sorted(proc.mm.frames)[0]
        kernel2.sys_mprotect(proc, va, PAGE_SIZE, PTE_USER)
        kernel2.swap.swap_out(proc, va)
        kernel2.fault_handler.handle(proc, va, socket=0)
        assert not pte_writable(proc.mm.tree.translate(va).flags)

    def test_dirty_writeback_counted(self, kernel2, proc):
        va = sorted(proc.mm.frames)[0]
        touch(kernel2, proc, va, is_write=True)
        kernel2.swap.scan_idle(proc)  # clears A/D? no: second chance clears both
        touch(kernel2, proc, va, is_write=True)
        kernel2.swap.swap_out(proc, va)
        assert kernel2.swap.stats.dirty_writebacks == 1

    def test_swap_huge_page_rejected(self, kernel2):
        kernel2.sysctl.thp_enabled = True
        process = kernel2.create_process("huge", socket=0)
        va = kernel2.sys_mmap(process, 2 * MIB, populate=True).value
        assert process.mm.frames[va].order == HUGE_ORDER
        with pytest.raises(InvalidMappingError):
            kernel2.swap.swap_out(process, va)

    def test_munmap_releases_swap_slots(self, kernel2, proc):
        vas = sorted(proc.mm.frames)
        kernel2.swap.swap_out(proc, vas[0])
        kernel2.sys_munmap(proc, vas[0], 16 * PAGE_SIZE)
        assert kernel2.swap.device.used_slots == 0
        assert proc.mm.swapped == {}

    def test_reclaim_loop(self, kernel2, proc):
        evicted = kernel2.swap.reclaim(proc, target_pages=8)
        assert evicted == 8
        assert len(proc.mm.swapped) == 8

    def test_failed_swap_in_keeps_the_page_swapped(self, kernel2):
        """A swap-in whose page-table descent runs out of memory maps
        nothing: the page stays swapped out in its slot and its new frame
        goes back, so the retry is again a major fault."""
        process = kernel2.create_process("oom", socket=0)
        va = kernel2.sys_mmap(process, 16 * PAGE_SIZE).value
        kernel2.touch(process, va, is_write=True)
        kernel2.swap.swap_out(process, va)  # releases the emptied leaf table
        slot = process.mm.swapped[va].slot
        used = _used_frames(kernel2)
        plan = FaultPlan(seed=1)
        plan.pagecache_oom(on_calls={1})
        install_fault_plan(kernel2, plan)
        with pytest.raises(OutOfMemoryError):
            kernel2.touch(process, va, is_write=True)
        assert plan.log, "the plan never fired"
        assert process.mm.swapped[va].slot == slot
        assert not process.mm.frames
        assert _used_frames(kernel2) == used
        assert kernel2.swap.device.used_slots == 1
        assert kernel2.swap.stats.pages_swapped_in == 0

        uninstall_fault_plan(kernel2)
        result = kernel2.touch(process, va, is_write=True)
        assert result.major
        assert va not in process.mm.swapped and va in process.mm.frames
        assert kernel2.swap.device.used_slots == 0
        assert kernel2.swap.stats.pages_swapped_in == 1


class TestReplicationCorrectness:
    """Why §5.4's OR-everywhere semantics exist."""

    @pytest.fixture
    def replicated(self, kernel2, proc):
        kernel2.mitosis.set_replication_mask(proc, frozenset({0, 1}))
        return proc

    def test_access_through_any_replica_keeps_page_resident(self, kernel2, replicated):
        proc = replicated
        va = sorted(proc.mm.frames)[0]
        # The page is hammered ONLY through socket 1's replica.
        touch(kernel2, proc, va, socket=1)
        idle = kernel2.swap.scan_idle(proc)
        assert va not in idle  # the OR across replicas saw the A bit

    def test_naive_primary_only_scan_would_evict_hot_page(self, kernel2, replicated):
        """The regression Mitosis prevents: reading only the primary copy
        misses accesses made through other sockets' replicas."""
        proc = replicated
        va = sorted(proc.mm.frames)[0]
        touch(kernel2, proc, va, socket=1)
        tree = proc.mm.tree
        location = tree.leaf_location(va)
        naive_entry = location.page.entries[location.index]  # primary only
        correct_entry = tree.ops.read_pte(tree, location.page, location.index)
        assert not naive_entry & PTE_ACCESSED  # naive scan: "idle" (WRONG)
        assert correct_entry & PTE_ACCESSED  # Mitosis scan: "hot"

    def test_second_chance_resets_all_replicas(self, kernel2, replicated):
        proc = replicated
        va = sorted(proc.mm.frames)[0]
        touch(kernel2, proc, va, socket=1)
        kernel2.swap.scan_idle(proc)  # second chance: reset everywhere
        from repro.mitosis.ring import ring_members

        location = proc.mm.tree.leaf_location(va)
        for member in ring_members(proc.mm.tree, location.page):
            assert not member.entries[location.index] & PTE_ACCESSED

    def test_swap_cycle_on_replicated_tree(self, kernel2, replicated):
        proc = replicated
        va = sorted(proc.mm.frames)[0]
        kernel2.swap.swap_out(proc, va)
        walker = HardwareWalker(proc.mm.tree)
        for socket in (0, 1):  # eviction visible through every replica
            assert walker.walk(va, socket, set_ad_bits=False).faulted
        kernel2.fault_handler.handle(proc, va, socket=0)
        for socket in (0, 1):  # and so is the swap-in
            result = walker.walk(va, socket, set_ad_bits=False)
            assert not result.faulted
            assert all(a.node == socket for a in result.accesses)

    def test_dirty_or_across_replicas(self, kernel2, replicated):
        proc = replicated
        va = sorted(proc.mm.frames)[0]
        touch(kernel2, proc, va, socket=1, is_write=True)
        assert kernel2.swap.is_dirty(proc, va)

"""The four instrumented layers actually consult an installed plan."""

import pytest

from repro.errors import OutOfMemoryError
from repro.inject import FaultPlan, install_fault_plan
from repro.kernel.swap import DEFAULT_STALL_CYCLES, SWAP_IN_CYCLES, SWAP_OUT_CYCLES
from repro.tlb.shootdown import IPI_CYCLES, MAX_ACK_RETRIES
from repro.units import MIB, PAGE_SIZE


class TestAllocatorOom:
    def test_injected_oom_raises_and_heals(self, kernel2):
        plan = FaultPlan()
        plan.oom_on_node(0, limit=1)
        install_fault_plan(kernel2, plan)
        with pytest.raises(OutOfMemoryError) as exc_info:
            kernel2.physmem.alloc_frame(0)
        assert exc_info.value.node == 0
        assert "injected" in str(exc_info.value)
        frame = kernel2.physmem.alloc_frame(0)  # fault was transient
        assert frame.node == 0

    def test_other_node_unaffected(self, kernel2):
        plan = FaultPlan()
        plan.oom_on_node(0)
        install_fault_plan(kernel2, plan)
        assert kernel2.physmem.alloc_frame(1).node == 1

    def test_no_frame_leaks_on_injection(self, kernel2):
        used_before = kernel2.physmem.stats(0).used_frames
        plan = FaultPlan()
        plan.oom_on_node(0, limit=1)
        install_fault_plan(kernel2, plan)
        with pytest.raises(OutOfMemoryError):
            kernel2.physmem.alloc_frame(0)
        assert kernel2.physmem.stats(0).used_frames == used_before


class TestPagecacheRefill:
    def test_refill_failure_raises_per_node_oom(self, kernel2):
        plan = FaultPlan()
        plan.pagecache_oom(node=1, limit=1)
        install_fault_plan(kernel2, plan)
        with pytest.raises(OutOfMemoryError) as exc_info:
            kernel2.pagecache.alloc(1)
        assert exc_info.value.node == 1
        assert kernel2.pagecache.alloc(1).node == 1  # healed

    def test_pooled_frames_absorb_injected_refill_failure(self, kernel2):
        """A reserve (§5.1) satisfies allocations without refilling, so the
        refill fault never fires — the page-cache is the defence layer."""
        kernel2.pagecache.set_reserve(2)
        plan = FaultPlan()
        rule = plan.pagecache_oom(node=0)
        install_fault_plan(kernel2, plan)
        frame = kernel2.pagecache.alloc(0)
        assert frame.node == 0
        assert rule.fired == 0


class TestShootdownChaos:
    def test_delay_multiplier_stretches_cycles(self, kernel2):
        baseline = kernel2.shootdown.flush_all([])
        plan = FaultPlan()
        plan.shootdown_delay(multiplier=8.0, limit=1)
        install_fault_plan(kernel2, plan)
        delayed = kernel2.shootdown.flush_all([])
        assert delayed == pytest.approx(8.0 * baseline)
        assert kernel2.shootdown.stats.delayed == 1
        assert kernel2.shootdown.flush_all([]) == pytest.approx(baseline)

    def test_dropped_ack_costs_a_resend_round(self, kernel2):
        plan = FaultPlan()
        plan.drop_acks(limit=1)
        install_fault_plan(kernel2, plan)
        cycles = kernel2.shootdown.flush_all([])
        stats = kernel2.shootdown.stats
        assert stats.dropped_acks == 1
        assert stats.ack_retries == 1
        assert stats.ack_timeouts == 0
        assert cycles == pytest.approx(IPI_CYCLES + IPI_CYCLES)  # round + resend

    def test_persistent_drops_bounded_by_retry_limit(self, kernel2):
        plan = FaultPlan()
        plan.drop_acks()  # every ack lost, forever
        install_fault_plan(kernel2, plan)
        kernel2.shootdown.flush_all([])
        stats = kernel2.shootdown.stats
        assert stats.ack_retries == MAX_ACK_RETRIES
        assert stats.ack_timeouts == 1  # gave up, did not hang
        assert stats.dropped_acks == MAX_ACK_RETRIES + 1


class TestSwapStall:
    @pytest.fixture
    def mapped(self, kernel2):
        process = kernel2.create_process("app", socket=0)
        kernel2.sys_mmap(process, MIB, populate=True)
        return process

    def test_swap_out_pays_injected_stall(self, kernel2, mapped):
        plan = FaultPlan()
        plan.swap_stall(limit=1)
        install_fault_plan(kernel2, plan)
        va = next(iter(mapped.mm.frames))
        cycles = kernel2.swap.swap_out(mapped, va)
        assert cycles >= SWAP_OUT_CYCLES + DEFAULT_STALL_CYCLES
        assert kernel2.swap.stats.io_stalls == 1
        assert kernel2.swap.stats.stall_cycles == pytest.approx(DEFAULT_STALL_CYCLES)

    def test_swap_in_custom_stall_cycles(self, kernel2, mapped):
        va = next(iter(mapped.mm.frames))
        kernel2.swap.swap_out(mapped, va)
        plan = FaultPlan()
        plan.swap_stall(stall_cycles=12_345.0, limit=1)
        install_fault_plan(kernel2, plan)
        cycles = kernel2.swap.swap_in(mapped, va, socket=0)
        assert cycles == pytest.approx(SWAP_IN_CYCLES + 12_345.0)
        assert mapped.mm.frames[va].nbytes == PAGE_SIZE

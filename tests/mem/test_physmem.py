"""PhysicalMemory: strict/fallback allocation, bulk runs, frame metadata,
accounting."""

import numpy as np
import pytest

from repro.errors import OutOfMemoryError, TopologyError
from repro.inject.plan import SITE_ALLOCATOR_OOM, FaultPlan, FaultRule
from repro.mem.frame import FrameKind
from repro.mem.physmem import PhysicalMemory
from repro.machine.topology import Machine
from repro.units import MIB, PAGE_SIZE


class TestNodePartition:
    def test_node_of_pfn_partitions_space(self, physmem2, physmem4):
        f0 = physmem2.alloc_frame(0)
        f1 = physmem2.alloc_frame(1)
        assert physmem2.node_of_pfn(f0.pfn) == 0
        assert physmem2.node_of_pfn(f1.pfn) == 1
        # Every node's first and last pfn, on both sides of each boundary.
        for physmem in (physmem2, physmem4):
            n = physmem.machine.n_sockets
            frames = physmem.machine.sockets[0].memory_bytes // PAGE_SIZE
            for node in range(n):
                first, last = node * frames, (node + 1) * frames - 1
                assert physmem.node_of_pfn(first) == node
                assert physmem.node_of_pfn(first + 1) == node
                assert physmem.node_of_pfn(last) == node

    def test_node_of_pfn_rejects_out_of_range(self, physmem2, physmem4):
        with pytest.raises(TopologyError):
            physmem2.node_of_pfn(10**9)
        for physmem in (physmem2, physmem4):
            end = physmem.machine.n_sockets * physmem.machine.sockets[0].memory_bytes // PAGE_SIZE
            for pfn in (-1, -(10**9), end, end + 1):
                with pytest.raises(TopologyError):
                    physmem.node_of_pfn(pfn)


class TestAllocation:
    def test_strict_allocation_lands_on_node(self, physmem4):
        for node in range(4):
            frame = physmem4.alloc_frame(node)
            assert frame.node == node

    def test_strict_allocation_fails_when_node_full(self):
        machine = Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=8 * PAGE_SIZE)
        pm = PhysicalMemory(machine)
        for _ in range(8):
            pm.alloc_frame(0)
        with pytest.raises(OutOfMemoryError):
            pm.alloc_frame(0)
        pm.alloc_frame(1)  # other node untouched

    def test_fallback_moves_to_next_node(self):
        machine = Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=2 * PAGE_SIZE)
        pm = PhysicalMemory(machine)
        pm.alloc_frame(0)
        pm.alloc_frame(0)
        frame = pm.alloc_frame_fallback(0)
        assert frame.node == 1

    def test_fallback_raises_when_machine_full(self):
        machine = Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=PAGE_SIZE)
        pm = PhysicalMemory(machine)
        pm.alloc_frame(0)
        pm.alloc_frame(1)
        with pytest.raises(OutOfMemoryError) as exc:
            pm.alloc_frame_fallback(0)
        assert exc.value.node is None

    def test_huge_frame_has_order_9(self, physmem2):
        frame = physmem2.alloc_huge_frame(0)
        assert frame.order == 9
        assert frame.nbytes == 2 * MIB


class TestFrameMetadata:
    def test_frame_lookup_roundtrip(self, physmem2):
        frame = physmem2.alloc_frame(1)
        assert physmem2.frame(frame.pfn) is frame

    def test_lookup_of_unallocated_pfn_raises(self, physmem2):
        with pytest.raises(TopologyError):
            physmem2.frame(12345)

    def test_double_free_detected(self, physmem2):
        frame = physmem2.alloc_frame(0)
        physmem2.free(frame)
        with pytest.raises(ValueError):
            physmem2.free(frame)

    def test_free_resets_metadata(self, physmem2):
        frame = physmem2.alloc_frame(0, kind=FrameKind.PAGE_TABLE)
        frame.replica_next = frame.pfn
        physmem2.free(frame)
        assert frame.kind is FrameKind.FREE
        assert frame.replica_next is None


class TestAccounting:
    def test_page_table_bytes_tracked_per_node(self, physmem2):
        physmem2.alloc_frame(0, kind=FrameKind.PAGE_TABLE)
        physmem2.alloc_frame(0, kind=FrameKind.PAGE_TABLE)
        physmem2.alloc_frame(1, kind=FrameKind.DATA)
        assert physmem2.page_table_bytes(0) == 2 * PAGE_SIZE
        assert physmem2.page_table_bytes(1) == 0
        assert physmem2.page_table_bytes() == 2 * PAGE_SIZE

    def test_page_table_bytes_drop_on_free(self, physmem2):
        frame = physmem2.alloc_frame(0, kind=FrameKind.PAGE_TABLE)
        physmem2.free(frame)
        assert physmem2.page_table_bytes(0) == 0

    def test_stats_snapshot(self, physmem2):
        physmem2.alloc_frame(0)
        stats = physmem2.stats(0)
        assert stats.used_frames == 1
        assert stats.free_frames == stats.capacity_frames - 1

    def test_total_used_bytes(self, physmem2):
        physmem2.alloc_frame(0)
        physmem2.alloc_huge_frame(1)
        assert physmem2.total_used_bytes() == PAGE_SIZE + 2 * MIB


class TestBreakHugeBlock:
    def test_break_reduces_huge_availability_only(self, physmem2):
        before_huge = physmem2.huge_blocks_available(0)
        before_used = physmem2.stats(0).used_frames
        pin = physmem2.break_huge_block(0)
        assert pin.kind is FrameKind.PINNED
        assert physmem2.huge_blocks_available(0) == before_huge - 1
        assert physmem2.stats(0).used_frames == before_used + 1


def _fragmented_memory(plan) -> PhysicalMemory:
    """Four 4 MiB nodes: node 1 nearly full, node 2 with scattered free
    ranges and a free 2 MiB block, nodes 0 and 3 untouched."""
    pm = PhysicalMemory(Machine.homogeneous(4, cores_per_socket=1, memory_per_socket=4 * MIB))
    for _ in range(1000):
        pm.alloc_frame(1)
    head = pm.alloc_huge_frame(2)
    small = [pm.alloc_frame(2) for _ in range(40)]
    pm.free(head)
    for frame in small[5:30:3]:
        pm.free(frame)
    if plan is not None:
        pm.install_fault_plan(plan())
    return pm


def _memory_state(pm: PhysicalMemory) -> list:
    return [
        (a.used_frames, [list(r) for r in a._free_ranges], list(a._free_huge), a._bump)
        for a in pm._allocators
    ]


def _four_refusals() -> FaultPlan:
    """The fifth strict try and the whole fallback order after it fail."""
    return FaultPlan(rules=[FaultRule(site=SITE_ALLOCATOR_OOM, on_calls={5, 6, 7, 8})])


def _random_refusals() -> FaultPlan:
    return FaultPlan(seed=3, rules=[FaultRule(site=SITE_ALLOCATOR_OOM, probability=0.2)])


class TestBulkFallback:
    """``alloc_frames_fallback`` against one ``alloc_frame_fallback`` per
    page: one-node runs (bulk takes with fallbacks in between), interleaved
    runs with every share available (per-node bulk takes) and the
    page-by-page cases (a short node, a repeated node, a fault plan)."""

    @pytest.mark.parametrize("plan", [None, _four_refusals, _random_refusals])
    @pytest.mark.parametrize(
        "rotation", [(0,), (1,), (2,), (0, 1, 2, 3), (3, 2, 0, 1), (0, 2), (2, 0), (0, 0, 3)]
    )
    def test_matches_per_page_fallback(self, rotation, plan):
        for count in (0, 1, 7, 300, 5000):
            sides = []
            for bulk in (True, False):
                pm = _fragmented_memory(plan)
                out, error = [], None
                try:
                    if bulk:
                        pm.alloc_frames_fallback(count, rotation, out)
                    else:
                        for i in range(count):
                            out.append(pm.alloc_frame_fallback(rotation[i % len(rotation)]))
                except OutOfMemoryError as exc:
                    error = str(exc)
                assert all(pm.frame(frame.pfn) is frame for frame in out)
                sides.append(
                    (
                        [(f.pfn, f.node, f.kind, f.order) for f in out],
                        error,
                        _memory_state(pm),
                        None if pm.fault_plan is None else pm.fault_plan.log,
                    )
                )
            assert sides[0] == sides[1], (rotation, count)
        assert sides[0][1] is not None  # 5,000 pages do not fit

    def test_invalid_node_raises_at_its_page(self, physmem2):
        out = []
        with pytest.raises(TopologyError):
            physmem2.alloc_frames_fallback(5, (0, 7), out)
        assert [frame.node for frame in out] == [0]
        with pytest.raises(TopologyError):
            physmem2.alloc_frames_fallback(5, (7,), out)
        assert len(out) == 1


class TestNodesOfPfns:
    def test_matches_node_of_pfn(self, physmem4):
        end = 4 * physmem4.machine.sockets[0].memory_bytes // PAGE_SIZE
        pfns = np.array([0, 1, end // 4 - 1, end // 4, end // 2 + 3, end - 1], dtype=np.int64)
        assert physmem4.nodes_of_pfns(pfns).tolist() == [physmem4.node_of_pfn(p) for p in pfns.tolist()]

    def test_rejects_the_first_pfn_outside_memory(self, physmem2):
        end = 2 * physmem2.machine.sockets[0].memory_bytes // PAGE_SIZE
        with pytest.raises(TopologyError, match=f"pfn {end + 5} outside"):
            physmem2.nodes_of_pfns(np.array([3, end + 5, end + 9], dtype=np.int64))
        with pytest.raises(TopologyError, match="pfn -1 outside"):
            physmem2.nodes_of_pfns(np.array([-1], dtype=np.int64))

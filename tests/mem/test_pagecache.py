"""Per-socket page-table page-caches (§5.1)."""

import pytest

from repro.errors import OutOfMemoryError
from repro.machine.topology import Machine
from repro.mem.frame import FrameKind
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.units import PAGE_SIZE


def tiny_machine(frames_per_node=8):
    return Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=frames_per_node * PAGE_SIZE)


class TestReservation:
    def test_set_reserve_pools_frames(self, physmem2):
        cache = PageTablePageCache(physmem2)
        cache.set_reserve(4)
        assert cache.pooled(0) == 4
        assert cache.pooled(1) == 4

    def test_shrink_returns_frames(self, physmem2):
        cache = PageTablePageCache(physmem2, reserve_per_node=4)
        used_before = physmem2.stats(0).used_frames
        cache.set_reserve(1)
        assert cache.pooled(0) == 1
        assert physmem2.stats(0).used_frames == used_before - 3

    def test_reserve_is_best_effort_under_pressure(self):
        pm = PhysicalMemory(tiny_machine(frames_per_node=2))
        cache = PageTablePageCache(pm)
        cache.set_reserve(5)  # more than exists; must not raise
        assert cache.pooled(0) == 2

    def test_negative_reserve_rejected(self, physmem2):
        cache = PageTablePageCache(physmem2)
        with pytest.raises(ValueError):
            cache.set_reserve(-1)


class TestAllocation:
    def test_alloc_prefers_pool(self, physmem2):
        cache = PageTablePageCache(physmem2, reserve_per_node=2)
        frame = cache.alloc(0)
        assert frame.node == 0
        assert cache.pooled(0) == 1

    def test_alloc_falls_back_to_allocator(self, physmem2):
        cache = PageTablePageCache(physmem2)
        frame = cache.alloc(1)
        assert frame.node == 1
        assert frame.kind is FrameKind.PAGE_TABLE

    def test_pool_survives_node_exhaustion(self):
        """The whole point of §5.1: strict PT allocation succeeds from the
        reserve even when the node is otherwise full."""
        pm = PhysicalMemory(tiny_machine(frames_per_node=4))
        cache = PageTablePageCache(pm, reserve_per_node=2)
        while True:
            try:
                pm.alloc_frame(0)
            except OutOfMemoryError:
                break
        frame = cache.alloc(0)
        assert frame.node == 0
        cache.alloc(0)
        with pytest.raises(OutOfMemoryError):
            cache.alloc(0)

    def test_free_refills_pool_up_to_target(self, physmem2):
        cache = PageTablePageCache(physmem2, reserve_per_node=1)
        a = cache.alloc(0)
        b = cache.alloc(0)
        cache.free(a)
        assert cache.pooled(0) == 1
        used = physmem2.stats(0).used_frames
        cache.free(b)  # pool full -> returned to allocator
        assert cache.pooled(0) == 1
        assert physmem2.stats(0).used_frames == used - 1

    def test_every_path_hands_out_page_table_frames(self, physmem2):
        """Table allocators rely on this: they never retag a frame."""
        cache = PageTablePageCache(physmem2, reserve_per_node=1)
        pooled = cache.alloc(0)
        refilled = cache.alloc(0)  # pool empty: strict node allocation
        kinds = [pooled.kind, refilled.kind]
        cache.free(pooled)  # back into the pool
        cache.free(refilled)  # pool full: back to the node allocator
        again = [cache.alloc(0), cache.alloc(0)]
        assert again[0] is pooled
        kinds += [frame.kind for frame in again]
        assert kinds == [FrameKind.PAGE_TABLE] * 4

    def test_drain_releases_everything(self, physmem2):
        cache = PageTablePageCache(physmem2, reserve_per_node=3)
        assert [cache.drain(node) for node in (0, 1)] == [3, 3]
        assert cache.pooled(0) == 0
        assert physmem2.stats(0).used_frames == 0

"""Per-socket page-caches for page-table allocation (§5.1).

Strict allocation of a page-table replica *must* land on a given socket and
can therefore fail while other sockets still have memory. The paper reserves
frames per socket ahead of time, sized through a sysctl. This module is that
reservation: a pool of pre-allocated frames per node that page-table
allocations draw from before falling back to the node allocator.
"""

from __future__ import annotations

from repro.errors import OutOfMemoryError
from repro.inject.plan import SITE_PAGECACHE_REFILL
from repro.mem.frame import Frame, FrameKind
from repro.mem.physmem import PhysicalMemory
from repro.units import PAGE_SIZE


class PageTablePageCache:
    """Reserved frames for page-table pages, one pool per NUMA node."""

    def __init__(self, physmem: PhysicalMemory, reserve_per_node: int = 0):
        """``reserve_per_node`` frames are reserved eagerly on every node
        (the sysctl default); :meth:`set_reserve` adjusts it later."""
        self.physmem = physmem
        self._pools: dict[int, list[Frame]] = {n: [] for n in physmem.machine.node_ids()}
        self._target = 0
        #: Optional :class:`repro.inject.plan.FaultPlan`; consulted when a
        #: pool is empty and must refill from the strict node allocator.
        self.fault_plan = None
        if reserve_per_node:
            self.set_reserve(reserve_per_node)

    def pooled(self, node: int) -> int:
        """Frames currently sitting in ``node``'s pool."""
        return len(self._pools[node])

    def set_reserve(self, frames_per_node: int) -> None:
        """Grow or shrink every node's pool to ``frames_per_node``."""
        if frames_per_node < 0:
            raise ValueError("reserve must be non-negative")
        self._target = frames_per_node
        for node, pool in self._pools.items():
            while len(pool) > frames_per_node:
                self.physmem.free(pool.pop())
            while len(pool) < frames_per_node:
                try:
                    pool.append(self.physmem.alloc_frame(node, kind=FrameKind.PAGE_TABLE))
                except OutOfMemoryError:
                    break  # best effort, like the kernel's reservation

    def alloc(self, node: int) -> Frame:
        """Allocate a page-table frame on ``node``: pool first, then strict.

        Raises:
            OutOfMemoryError: neither the pool nor the node can supply one.
        """
        pool = self._pools[node]
        if pool:
            return pool.pop()
        plan = self.fault_plan
        if plan is not None and plan.fire(SITE_PAGECACHE_REFILL, node=node) is not None:
            raise OutOfMemoryError(
                node, PAGE_SIZE,
                f"injected fault: page-table page-cache refill failed on node {node}",
            )
        return self.physmem.alloc_frame(node, kind=FrameKind.PAGE_TABLE)

    def free(self, frame: Frame) -> None:
        """Release a page-table frame, refilling the pool up to target."""
        pool = self._pools[frame.node]
        if len(pool) < self._target:
            frame.replica_next = None
            pool.append(frame)
        else:
            self.physmem.free(frame)

    def drain(self, node: int) -> int:
        """Return ``node``'s pooled frames to the allocator (e.g. memory
        pressure on that node); returns how many. The reserve target
        stays, so later frees refill the pool."""
        pool = self._pools[node]
        drained = len(pool)
        while pool:
            self.physmem.free(pool.pop())
        return drained

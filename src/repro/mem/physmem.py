"""Machine-wide physical memory: node allocators + frame metadata.

:class:`PhysicalMemory` is the single authority on physical frames. It
partitions the PFN space contiguously across nodes (node *i* owns
``[i * frames_per_node, ...)``), keeps a :class:`~repro.mem.frame.Frame`
record for every *allocated* frame, and exposes strict per-node allocation
plus the nearest-node fallback order used for data pages.

Freed small frames are recycled but deliberately never coalesced back into
2 MiB blocks — mirroring a Linux system without memory compaction, which is
what makes the Fig. 11 fragmentation experiment possible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import OutOfMemoryError, TopologyError
from repro.machine.topology import Machine
from repro.mem.allocator import HUGE_ORDER, NodeAllocator
from repro.mem.frame import Frame, FrameKind
from repro.units import PAGE_SIZE


@dataclass(frozen=True)
class NodeMemStats:
    """Snapshot of one node's frame accounting."""

    node: int
    capacity_frames: int
    used_frames: int
    page_table_frames: int

    @property
    def free_frames(self) -> int:
        return self.capacity_frames - self.used_frames


class PhysicalMemory:
    """All DRAM of one :class:`~repro.machine.topology.Machine`."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.fault_plan = None
        self._frames: dict[int, Frame] = {}
        self._allocators: list[NodeAllocator] = []
        self._pt_frames_per_node: list[int] = [0] * machine.n_sockets
        base = 0
        for socket in machine.sockets:
            capacity = socket.memory_bytes // PAGE_SIZE
            self._allocators.append(
                NodeAllocator(node=socket.socket_id, pfn_base=base, capacity_frames=capacity)
            )
            base += capacity
        #: Ascending first PFN of every node, and one past the last PFN.
        self._pfn_bases = [allocator.pfn_base for allocator in self._allocators]
        self._pfn_end = base
        self._pfn_base_array = np.array(self._pfn_bases, dtype=np.int64)
        self._node_array = np.array([allocator.node for allocator in self._allocators])

    def install_fault_plan(self, plan) -> None:
        """Thread a :class:`repro.inject.plan.FaultPlan` (or ``None``) into
        every node allocator so strict allocations consult it."""
        self.fault_plan = plan
        for allocator in self._allocators:
            allocator.fault_plan = plan

    # -- queries --------------------------------------------------------------

    def node_of_pfn(self, pfn: int) -> int:
        """NUMA node owning ``pfn``: one bisect over the node bases."""
        if not 0 <= pfn < self._pfn_end:
            raise TopologyError(f"pfn {pfn} outside physical memory")
        return self._allocators[bisect_right(self._pfn_bases, pfn) - 1].node

    def nodes_of_pfns(self, pfns: np.ndarray) -> np.ndarray:
        """:meth:`node_of_pfn` of every PFN of an integer array, in one
        ``searchsorted`` over the node bases.

        Raises:
            TopologyError: at the first PFN outside physical memory.
        """
        outside = (pfns < 0) | (pfns >= self._pfn_end)
        if outside.any():
            raise TopologyError(f"pfn {int(pfns[outside.argmax()])} outside physical memory")
        return self._node_array[np.searchsorted(self._pfn_base_array, pfns, side="right") - 1]

    def frame(self, pfn: int) -> Frame:
        """Metadata of an allocated frame (the ``struct page`` lookup)."""
        try:
            return self._frames[pfn]
        except KeyError:
            raise TopologyError(f"pfn {pfn} is not an allocated frame") from None

    def stats(self, node: int) -> NodeMemStats:
        self.machine.validate_node(node)
        allocator = self._allocators[node]
        return NodeMemStats(
            node=node,
            capacity_frames=allocator.capacity_frames,
            used_frames=allocator.used_frames,
            page_table_frames=self._pt_frames_per_node[node],
        )

    def total_used_bytes(self) -> int:
        return sum(a.used_bytes for a in self._allocators)

    def page_table_bytes(self, node: int | None = None) -> int:
        """Bytes currently consumed by page-table frames (Table 4 metric)."""
        if node is None:
            return sum(self._pt_frames_per_node) * PAGE_SIZE
        self.machine.validate_node(node)
        return self._pt_frames_per_node[node] * PAGE_SIZE

    def huge_blocks_available(self, node: int) -> int:
        self.machine.validate_node(node)
        return self._allocators[node].huge_blocks_available()

    # -- allocation -----------------------------------------------------------

    def alloc_frame(self, node: int, kind: FrameKind = FrameKind.DATA) -> Frame:
        """Strictly allocate one 4 KiB frame on ``node``."""
        self.machine.validate_node(node)
        pfn = self._allocators[node].alloc_frame()
        frame = Frame(pfn=pfn, node=node, kind=kind, order=0)
        self._frames[pfn] = frame
        if kind is FrameKind.PAGE_TABLE:
            self._pt_frames_per_node[node] += 1
        return frame

    def alloc_huge_frame(self, node: int, kind: FrameKind = FrameKind.DATA) -> Frame:
        """Strictly allocate one aligned 2 MiB block on ``node``."""
        self.machine.validate_node(node)
        pfn = self._allocators[node].alloc_huge()
        frame = Frame(pfn=pfn, node=node, kind=kind, order=HUGE_ORDER)
        self._frames[pfn] = frame
        return frame

    def break_huge_block(self, node: int) -> Frame:
        """Fragmentation primitive: sacrifice one free 2 MiB block on
        ``node``. The head frame comes back pinned; the 511 tail frames turn
        into ordinary order-0 free memory (never re-coalesced)."""
        self.machine.validate_node(node)
        pfn = self._allocators[node].break_huge_block()
        frame = Frame(pfn=pfn, node=node, kind=FrameKind.PINNED, order=0)
        self._frames[pfn] = frame
        return frame

    def alloc_frame_fallback(self, preferred: int, kind: FrameKind = FrameKind.DATA) -> Frame:
        """Allocate a 4 KiB frame, preferring ``preferred`` but falling back
        to other nodes in id order — the behaviour of a non-strict Linux
        allocation."""
        try:
            return self.alloc_frame(preferred, kind=kind)
        except OutOfMemoryError:
            return self._fallback_frame(preferred, kind)

    def alloc_frames_fallback(self, count: int, rotation: tuple[int, ...], out: list[Frame]) -> None:
        """Append ``count`` 4 KiB data frames to ``out``, page ``i`` exactly
        as ``alloc_frame_fallback(rotation[i % len(rotation)])`` would
        allocate it, in order: a strict try on its node, then the other
        nodes in id order.

        Each node's share is one bulk take (``NodeAllocator.alloc_frames``)
        and one record update. A one-node run takes its frames in one
        call; a page the take stops at falls back and the take resumes
        after it. A rotation over several nodes is taken page by page
        where per-node takes could reorder the fault plan's calls or the
        fallbacks: with a plan installed, or a node short of its share.

        When an allocation raises, ``out`` holds every frame allocated
        before the failing one.
        """
        if not count:
            return
        allocators = self._allocators
        if len(rotation) == 1:
            node = self.machine.validate_node(rotation[0])
            while count:
                taken = self._take(node, count)
                out.extend(taken)
                count -= len(taken)
                if count:
                    out.append(self._fallback_frame(node, FrameKind.DATA))
                    count -= 1
            return
        period = len(rotation)
        shares = [len(range(first, count, period)) for first in range(period)]
        if len(set(rotation)) == period and all(
            0 <= node < len(allocators)
            and allocators[node].fault_plan is None
            and allocators[node].free_frames >= share
            for node, share in zip(rotation, shares)
        ):
            run: list = [None] * count
            for first, node in enumerate(rotation):
                run[first::period] = self._take(node, shares[first])
            out.extend(run)
            return
        for i in range(count):
            out.append(self.alloc_frame_fallback(rotation[i % period]))

    def _take(self, node: int, count: int) -> list[Frame]:
        """Strictly allocate up to ``count`` data frames on ``node`` with
        one bulk take and record them; returns them in allocation order,
        short where the take stopped."""
        pfns = self._allocators[node].alloc_frames(count)
        frames = [Frame(pfn, node, FrameKind.DATA) for pfn in pfns]
        self._frames.update(zip(pfns, frames))
        return frames

    def _fallback_frame(self, preferred: int, kind: FrameKind) -> Frame:
        """The strict allocation on ``preferred`` failed: take a frame from
        the first other node that has one, in id order."""
        for node in self.machine.node_ids():
            if node == preferred:
                continue
            try:
                return self.alloc_frame(node, kind=kind)
            except OutOfMemoryError:
                continue
        raise OutOfMemoryError(None, PAGE_SIZE)

    def free(self, frame: Frame) -> None:
        """Return a frame (of any order) to its node."""
        stored = self._frames.pop(frame.pfn, None)
        if stored is None:
            raise ValueError(f"double free of pfn {frame.pfn}")
        if stored.kind is FrameKind.PAGE_TABLE:
            self._pt_frames_per_node[stored.node] -= 1
        allocator = self._allocators[stored.node]
        if stored.order == HUGE_ORDER:
            allocator.free_huge(stored.pfn)
        elif stored.order == 0:
            allocator.free_frame(stored.pfn)
        else:
            raise ValueError(f"unsupported order {stored.order}")
        stored.kind = FrameKind.FREE
        stored.replica_next = None

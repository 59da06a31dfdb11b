"""Processes, threads and the memory descriptor (``mm_struct``).

A :class:`MemoryDescriptor` bundles everything the kernel tracks per address
space: the VMA list, the page-table tree (through whichever PV-Ops backend
is active), the data frames backing each mapped page, the data-placement
policy, and — with Mitosis — the replication mask. The page-table lock of
§7.5 is modelled as a counted mutex so tests can assert that every
page-table mutation happens inside the critical section.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.kernel.policy import FirstTouchPolicy, PlacementPolicy
from repro.kernel.vma import VmaList
from repro.mem.allocator import HUGE_ORDER
from repro.mem.frame import Frame
from repro.paging.pagetable import PageTableTree
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE


class MmLock:
    """The per-mm page-table lock (counts acquisitions for tests)."""

    def __init__(self) -> None:
        self._depth = 0
        self.acquisitions = 0

    @property
    def held(self) -> bool:
        return self._depth > 0

    @contextmanager
    def __call__(self) -> Iterator[None]:
        self._depth += 1
        self.acquisitions += 1
        try:
            yield
        finally:
            self._depth -= 1


class MemoryDescriptor:
    """Per-process memory state (Linux's ``mm_struct``)."""

    def __init__(self, tree: PageTableTree, va_limit: int):
        self.tree = tree
        self.vmas = VmaList(va_limit)
        #: leaf VA -> backing data frame: a 2 MiB leaf's frame has order
        #: ``HUGE_ORDER``, a 4 KiB leaf's order 0.
        self.frames: dict[int, Frame] = {}
        #: leaf VA -> swap entry for pages evicted to the swap device
        #: (see :mod:`repro.kernel.swap`).
        self.swapped: dict[int, "object"] = {}
        #: Default data placement (first-touch, like Linux).
        self.data_policy: PlacementPolicy = FirstTouchPolicy()
        #: Sockets holding page-table replicas; ``None`` -> not replicated.
        self.replication_mask: frozenset[int] | None = None
        #: Set when replication had to degrade to a socket subset under
        #: memory pressure (a :class:`repro.mitosis.degrade.DegradedState`;
        #: kept untyped to keep the kernel importable without mitosis).
        self.degraded = None
        self.lock = MmLock()

    @property
    def replicated(self) -> bool:
        return self.replication_mask is not None

    def mapped_bytes(self) -> int:
        """Bytes of physical data memory currently mapped."""
        return sum(frame.nbytes for frame in self.frames.values())

    def frame_at(self, va: int) -> tuple[int, Frame] | None:
        """The leaf VA and mapped frame of the leaf covering ``va`` (checks
        both sizes)."""
        base4k = va & ~(PAGE_SIZE - 1)
        hit = self.frames.get(base4k)
        if hit is not None:
            return base4k, hit
        base2m = va & ~(HUGE_PAGE_SIZE - 1)
        hit = self.frames.get(base2m)
        if hit is not None and hit.order == HUGE_ORDER:
            return base2m, hit
        return None


@dataclass
class Thread:
    """One schedulable thread, pinned to a socket by the scenario driver."""

    tid: int
    socket: int


@dataclass
class Process:
    """A process: a pid, an address space and some threads."""

    pid: int
    name: str
    mm: MemoryDescriptor
    threads: list[Thread] = field(default_factory=list)

    @property
    def home_socket(self) -> int:
        """Socket of the first thread (single-threaded workloads' home)."""
        return self.threads[0].socket if self.threads else 0

    def sockets_in_use(self) -> frozenset[int]:
        return frozenset(thread.socket for thread in self.threads)

    def add_thread(self, socket: int) -> Thread:
        thread = Thread(tid=len(self.threads), socket=socket)
        self.threads.append(thread)
        return thread

"""The page-fault handler.

All data *and page-table* allocation happens here ("all page-table
allocations are performed by the OS on a page-fault", §5.1): when a thread
on socket *s* touches an unmapped page, the handler places the data page
according to the VMA/process policy with first-toucher ``s``, and the
page-table pages needed along the way are placed by the PV-Ops backend's
page-table policy (also first-touch by default — the root cause of the
skew in §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from repro.errors import ProtectionFault, SegmentationFault
from repro.kernel.costs import WorkCounters
from repro.kernel.policy import PlacementPolicy
from repro.kernel.process import MemoryDescriptor, Process
from repro.kernel.thp import ThpController
from repro.kernel.vma import Vma
from repro.mem.allocator import HUGE_ORDER
from repro.mem.frame import Frame
from repro.mem.physmem import PhysicalMemory
from repro.paging.levels import LEAF_LEVEL, level_index
from repro.paging.pagetable import PageTablePage
from repro.paging.pte import PTE_WRITABLE, pte_writable
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE, PTES_PER_TABLE


@dataclass
class FaultResult:
    """What servicing one fault did."""

    va: int
    mapped_bytes: int
    huge: bool
    work: WorkCounters
    #: False when the fault was spurious (already mapped by another thread).
    did_map: bool = True
    #: True for a major fault (swap-in); ``io_cycles`` carries its cost.
    major: bool = False
    io_cycles: float = 0.0


class PageFaultHandler:
    """Demand paging for anonymous memory."""

    def __init__(self, physmem: PhysicalMemory, thp: ThpController):
        self.physmem = physmem
        self.thp = thp
        #: Set by the kernel once the swap manager exists; major faults
        #: route through it.
        self.swap = None
        self.faults_handled = 0

    def handle(
        self,
        process: Process,
        va: int,
        socket: int,
        is_write: bool = False,
        allow_huge: bool = True,
    ) -> FaultResult:
        """Service a fault at ``va`` raised by a thread on ``socket``.

        Raises:
            SegmentationFault: no VMA covers ``va``.
            ProtectionFault: a write hit a read-only mapping.
        """
        mm = process.mm
        vma = mm.vmas.find(va)
        if vma is None:
            raise SegmentationFault(va)
        base = va & ~(PAGE_SIZE - 1)
        if self.swap is not None and base in mm.swapped:
            self.faults_handled += 1
            io = self.swap.swap_in(process, base, socket)
            return FaultResult(
                va=va,
                mapped_bytes=PAGE_SIZE,
                huge=False,
                work=WorkCounters(),
                major=True,
                io_cycles=io,
            )
        existing = mm.frame_at(va)
        if existing is not None:
            translation = mm.tree.translate(va)
            assert translation is not None
            if is_write and not pte_writable(translation.flags):
                raise ProtectionFault(va, "write")
            huge = existing[1].order == HUGE_ORDER
            return FaultResult(va=va, mapped_bytes=0, huge=huge, work=WorkCounters(), did_map=False)

        self.faults_handled += 1
        policy = vma.data_policy or mm.data_policy
        node = policy.choose_node(socket)
        work = WorkCounters()

        if allow_huge and self.thp.eligible(mm, vma, va):
            frame = self.thp.alloc(node)
            if frame is not None:
                self._map_huge(mm, vma, va, frame, socket)
                work.pages_zeroed_2m += 1
                return FaultResult(va=va, mapped_bytes=HUGE_PAGE_SIZE, huge=True, work=work)

        frame = self.physmem.alloc_frame_fallback(node)
        with mm.lock():
            table = self._leaf_table_for(mm, base, socket, frame)
            self._map_leaves(mm, vma, table, base, [frame])
        work.pages_zeroed_4k += 1
        return FaultResult(va=va, mapped_bytes=PAGE_SIZE, huge=False, work=work)

    def populate(
        self,
        process: Process,
        start: int,
        end: int,
        socket: int,
        allow_huge: bool = True,
    ) -> WorkCounters:
        """Write-fault ``[start, end)`` in ascending order from ``socket``
        (MAP_POPULATE, or a thread first-touching its init partition).

        The result is exactly that of one ``handle(is_write=True)`` per
        page, each advancing by what it mapped (so a huge page faulted
        mid-window resumes 2 MiB past the fault): swapped pages are
        swapped in, mapped pages are spurious faults (write-protection
        check only), and every fresh page is one fault with its own
        placement decision and data frame, allocated in the same order.
        The difference is cost: THP eligibility is decided once per 2 MiB
        window, each leaf table is descended to once under one
        ``mm.lock()``, and each run of fresh pages in it gets its
        placement from one policy call, its frames from one
        physical-memory call (one bulk take per node), its PTEs from one
        PV-Ops run write and its records in one update.

        Returns the pages zeroed. On an exception every page before the
        failing one stays mapped, as with the per-page loop.

        Raises:
            ValueError: ``start`` is not page-aligned.
            SegmentationFault: a page has no VMA.
            ProtectionFault: a mapped page is read-only.
        """
        if start % PAGE_SIZE:
            raise ValueError(f"populate start 0x{start:x} is not page-aligned")
        mm = process.mm
        work = WorkCounters()
        pos = start
        while pos < end:
            vma = mm.vmas.find(pos)
            if vma is None:
                raise SegmentationFault(pos)
            window_end = (pos | (HUGE_PAGE_SIZE - 1)) + 1
            limit = min(end, vma.end, window_end)
            pos = self._populate_window(process, vma, pos, limit, socket, allow_huge, work)
        return work

    def _populate_window(
        self,
        process: Process,
        vma: Vma,
        pos: int,
        limit: int,
        socket: int,
        allow_huge: bool,
        work: WorkCounters,
    ) -> int:
        """Fault the pages ``[pos, limit)`` of one VMA inside one 2 MiB
        window (one leaf table); returns where the scan resumes.

        The window is taken one maximal run at a time: a run of mapped
        pages is one write-permission check over its table slice, a
        swapped page is one swap-in, and a run of fresh pages is one
        :meth:`_fault_run`. A run's end is found page by page unless the
        leaf table's present-entry count decides it: a full table means
        every page is mapped, and an empty one with no swapped page in
        the process means every page is fresh (a mapped page is exactly
        a present leaf entry)."""
        mm = process.mm
        frames = mm.frames
        window = pos & ~(HUGE_PAGE_SIZE - 1)
        head = frames.get(window)
        if head is not None and head.order == HUGE_ORDER:
            # One 2 MiB leaf: every page of the window is the same spurious fault.
            translation = mm.tree.translate(pos)
            assert translation is not None
            if not pte_writable(translation.flags):
                raise ProtectionFault(pos, "write")
            return window + HUGE_PAGE_SIZE
        swapped = mm.swapped if self.swap is not None else {}
        policy = vma.data_policy or mm.data_policy
        try_huge = allow_huge
        table: PageTablePage | None = None
        with mm.lock():
            while pos < limit:
                end = pos + PAGE_SIZE
                if pos in frames:
                    if table is None:
                        location = mm.tree.leaf_location(pos)
                        assert location is not None
                        table = location.page
                    if table.valid_count == PTES_PER_TABLE:
                        end = limit
                    while end < limit and end in frames:
                        end += PAGE_SIZE
                    _check_writable(table, pos, end)
                elif pos in swapped:
                    self.handle(process, pos, socket, is_write=True)  # swap-in
                else:
                    run: list[Frame] = []
                    if table is None:
                        # The first fresh page keeps handle()'s order: the
                        # THP decision (one descent that allocates nothing),
                        # its data frame, then the descent that may allocate.
                        self.faults_handled += 1
                        node = policy.choose_node(socket)
                        if try_huge and self.thp.eligible(mm, vma, pos):
                            frame = self.thp.alloc(node)
                            if frame is not None:
                                self._map_huge(mm, vma, pos, frame, socket)
                                work.pages_zeroed_2m += 1
                                return pos + HUGE_PAGE_SIZE
                        run.append(self.physmem.alloc_frame_fallback(node))
                        table = self._leaf_table_for(mm, pos, socket, run[0])
                    if table.valid_count == 0 and not swapped:
                        end = limit
                    while end < limit and end not in frames and end not in swapped:
                        end += PAGE_SIZE
                    self._fault_run(mm, vma, table, pos, end, policy, socket, run)
                    work.pages_zeroed_4k += len(run)
                try_huge = False
                pos = end
        return pos

    def _fault_run(
        self,
        mm: MemoryDescriptor,
        vma: Vma,
        table: PageTablePage,
        base: int,
        end: int,
        policy: PlacementPolicy,
        socket: int,
        run: list[Frame],
    ) -> None:
        """Fault the fresh pages ``[base, end)`` of ``table``; ``run``
        holds the frames of its first pages if they are allocated already.
        One placement call places the rest and one frame pass allocates
        them (one fault each), then one run write maps every page
        allocated, also when an allocation fails part-way: the policy then
        takes back the placements past the failing page. The caller holds
        ``mm.lock()``."""
        count = (end - base) // PAGE_SIZE - len(run)
        done = len(run)
        rotation = policy.choose_run(socket, count)
        try:
            self.physmem.alloc_frames_fallback(count, rotation, run)
        except BaseException:
            attempted = len(run) - done + 1  # the failing page too
            self.faults_handled += attempted
            policy.rewind(count - attempted)
            raise
        finally:
            if run:
                self._map_leaves(mm, vma, table, base, run)
        self.faults_handled += count

    def _leaf_table_for(
        self, mm: MemoryDescriptor, va: int, socket: int, frame: Frame
    ) -> PageTablePage:
        """Descend to ``va``'s leaf table for a fault whose data ``frame``
        is allocated already. If the descent fails (a page-table OOM), the
        frame goes back before the error propagates: nothing maps it."""
        try:
            return mm.tree.leaf_table(va, LEAF_LEVEL, socket)
        except BaseException:
            self.physmem.free(frame)
            raise

    def _map_huge(self, mm: MemoryDescriptor, vma: Vma, va: int, frame: Frame, socket: int) -> None:
        """Map the 2 MiB window around ``va`` to ``frame`` and count it in
        ``ThpStats.huge_mapped``. If the descent fails (a page-table OOM),
        the frame goes back before the error propagates, as in
        :meth:`_leaf_table_for`, and nothing is counted."""
        base = va & ~(HUGE_PAGE_SIZE - 1)
        try:
            with mm.lock():
                mm.tree.map_page(base, frame.pfn, vma.prot, huge=True, node_hint=socket)
        except BaseException:
            self.physmem.free(frame)
            raise
        mm.frames[base] = frame
        self.thp.stats.huge_mapped += 1

    @staticmethod
    def _map_leaves(
        mm: MemoryDescriptor, vma: Vma, table: PageTablePage, base: int, frames: list[Frame]
    ) -> None:
        """Map ``frames`` at consecutive 4 KiB pages from ``base`` in the
        leaf ``table`` with one run write, and record them in ``mm``.
        The caller holds ``mm.lock()``."""
        mm.tree.map_run(table, base, [frame.pfn for frame in frames], vma.prot)
        mm.frames.update(zip(range(base, base + len(frames) * PAGE_SIZE, PAGE_SIZE), frames))


def _check_writable(table: PageTablePage, base: int, end: int) -> None:
    """The write-permission check of spurious write faults on the mapped
    pages ``[base, end)`` of the leaf ``table``, in one pass.

    Raises:
        ProtectionFault: at the first read-only page.
    """
    first = level_index(base, LEAF_LEVEL)
    entries = table.entries[first : first + (end - base) // PAGE_SIZE]
    if reduce(and_, entries) & PTE_WRITABLE:
        return
    offset = next(i for i, entry in enumerate(entries) if not pte_writable(entry))
    raise ProtectionFault(base + offset * PAGE_SIZE, "write")

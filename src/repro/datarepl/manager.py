"""Data-page replication (the §2.3 comparison point).

Carrefour [32] and friends replicate *data* pages across sockets so reads
become local. The paper contrasts this with page-table replication:

* data pages replicate by bytewise copy, but cost real memory —
  (N-1) x footprint for full replication — and write-heavy pages need
  invalidation/collapse machinery whose cost "can outweigh the benefits";
* page-table pages need semantic replication but cost ~0.2% of footprint.

This manager implements read-mostly data replication *on top of* Mitosis:
with page-tables already replicated per socket, each socket's leaf PTE can
point at a socket-local copy of the data page. Reads from any socket become
local automatically (each socket's walk sees its own leaf values); the
first write collapses the page back to a single frame, Carrefour-style.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OutOfMemoryError, ReplicationError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.mitosis.ring import ring_members
from repro.paging.pte import make_pte, pte_flags, pte_pfn
from repro.paging.pagetable import PagingOps
from repro.mem.allocator import HUGE_ORDER
from repro.mem.frame import Frame, FrameKind
from repro.units import PAGE_SIZE


@dataclass
class DataReplStats:
    pages_replicated: int = 0
    copies_allocated: int = 0
    collapses: int = 0

    @property
    def extra_bytes(self) -> int:
        return self.copies_allocated * PAGE_SIZE


@dataclass
class DataReplicationManager:
    """Per-kernel data replication state."""

    kernel: Kernel
    stats: DataReplStats = field(default_factory=DataReplStats)
    #: (pid, va) -> socket -> copy frame (the original counts as its
    #: home socket's copy and is NOT in this dict).
    _copies: dict[tuple[int, int], dict[int, Frame]] = field(default_factory=dict)

    def replicate_pages(
        self,
        process: Process,
        vas: list[int] | None = None,
        max_pages: int | None = None,
    ) -> int:
        """Replicate the process' (4 KiB) data pages across its page-table
        replication mask. Returns pages replicated.

        Requires Mitosis replication to be active: divergent per-socket
        leaf values only exist when each socket walks its own page-table
        copy.
        """
        mm = process.mm
        mask = mm.replication_mask
        if not mask:
            raise ReplicationError("replicate page-tables before data (leaf PTEs must diverge)")
        targets = sorted(mask)
        count = 0
        vas = sorted(mm.frames) if vas is None else vas
        for va in vas:
            if max_pages is not None and count >= max_pages:
                break
            frame = mm.frames.get(va)
            if frame is None or frame.order == HUGE_ORDER:
                continue  # huge pages: copy cost dwarfs benefit; skip
            if (process.pid, va) in self._copies:
                continue
            if self._replicate_one(process, va, frame, targets):
                count += 1
        return count

    def _replicate_one(self, process: Process, va: int, original: Frame, targets: list[int]) -> bool:
        copies: dict[int, Frame] = {}
        try:
            for socket in targets:
                if socket == original.node:
                    continue
                copies[socket] = self.kernel.physmem.alloc_frame(socket, kind=FrameKind.DATA)
        except OutOfMemoryError:
            for frame in copies.values():
                self.kernel.physmem.free(frame)
            return False
        mm = process.mm
        location = mm.tree.leaf_location(va)
        assert location is not None
        flags = pte_flags(location.page.entries[location.index])
        with mm.lock():
            for member in ring_members(mm.tree, location.page):
                local = copies.get(member.node, original)
                # Per-copy divergent write: deliberately NOT ops.set_pte —
                # each replica points at its own socket's data copy.
                PagingOps.apply_entry_write(member, location.index, make_pte(local.pfn, flags))
        self._copies[(process.pid, va)] = copies
        self.stats.pages_replicated += 1
        self.stats.copies_allocated += len(copies)
        return True

    def is_replicated(self, process: Process, va: int) -> bool:
        return (process.pid, va) in self._copies

    def handle_write(self, process: Process, va: int, writing_socket: int) -> float:
        """Write-invalidation: collapse the page to one frame again.

        Keeps the writing socket's copy (freshest locality), repoints every
        leaf replica at it, frees the rest, and flushes TLBs. Returns the
        cycles charged — the consistency cost the paper warns about.
        """
        va &= ~(PAGE_SIZE - 1)
        copies = self._copies.pop((process.pid, va), None)
        if copies is None:
            return 0.0
        mm = process.mm
        original = mm.frames[va]
        keep = copies.pop(writing_socket, original)
        location = mm.tree.leaf_location(va)
        flags = pte_flags(location.page.entries[location.index])
        with mm.lock():
            for member in ring_members(mm.tree, location.page):
                PagingOps.apply_entry_write(member, location.index, make_pte(keep.pfn, flags))
        if keep is not original:
            self.kernel.physmem.free(original)
            mm.frames[va] = keep
        for frame in copies.values():
            self.kernel.physmem.free(frame)
        self.stats.collapses += 1
        from repro.kernel.costs import PAGE_COPY_CYCLES

        return PAGE_COPY_CYCLES + self.kernel.shootdown.flush_all(self.kernel.cpu_contexts)

    def collapse_all(self, process: Process) -> None:
        """Drop every data replica of a process (teardown / mask change)."""
        for (pid, va) in [key for key in self._copies if key[0] == process.pid]:
            self.handle_write(process, va, writing_socket=process.home_socket)

    def extra_bytes(self, process: Process) -> int:
        """Physical memory currently consumed by this process' data copies."""
        return sum(
            len(copies) * PAGE_SIZE
            for (pid, _), copies in self._copies.items()
            if pid == process.pid
        )

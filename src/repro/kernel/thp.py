"""Transparent huge pages (THP).

When enabled, anonymous faults try to back a whole aligned 2 MiB window
with one huge page. The attempt *fails* when the node has no contiguous
2 MiB block — the fragmentation fallback whose performance consequences
Fig. 11 demonstrates — and the fault proceeds with a 4 KiB page. The
controller counts both outcomes so experiments can report the huge-page
allocation failure rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OutOfMemoryError
from repro.kernel.process import MemoryDescriptor
from repro.kernel.vma import Vma
from repro.mem.frame import Frame, FrameKind
from repro.mem.physmem import PhysicalMemory
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pte import PTE_PRESENT
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE


@dataclass
class ThpStats:
    huge_mapped: int = 0
    fallbacks: int = 0
    collapses: int = 0
    splits: int = 0

    @property
    def attempts(self) -> int:
        return self.huge_mapped + self.fallbacks

    @property
    def failure_rate(self) -> float:
        return self.fallbacks / self.attempts if self.attempts else 0.0


@dataclass
class ThpController:
    """Decides and performs huge-page backing for anonymous faults."""

    physmem: PhysicalMemory
    stats: ThpStats = field(default_factory=ThpStats)

    def eligible(self, mm: MemoryDescriptor, vma: Vma, va: int) -> bool:
        """Can the 2 MiB window around ``va`` be THP-backed?

        Requires the VMA to cover the whole aligned window, THP allowed on
        the VMA, nothing of the window mapped, and no 4 KiB page of it
        swapped out (a huge mapping would cover the swapped page's
        swap-in).

        One descent of the primary tree, which allocates nothing, decides
        the mapped part: the window is unmapped when its L2 entry is
        absent or points at a leaf table with no present entry, since a
        mapped page is exactly a present leaf entry. Swapped pages are
        probed only when the process has some.
        """
        if not vma.use_huge:
            return False
        window = va & ~(HUGE_PAGE_SIZE - 1)
        if window < vma.start or window + HUGE_PAGE_SIZE > vma.end:
            return False
        table, index = mm.tree.walk_path(window)[-1]
        if table.level == LEAF_LEVEL:
            if table.valid_count:
                return False
        elif table.entries[index] & PTE_PRESENT:
            return False  # a 2 MiB leaf: the descent stops at one or at a hole
        swapped = mm.swapped
        if swapped:
            for page in range(window, window + HUGE_PAGE_SIZE, PAGE_SIZE):
                if page in swapped:
                    return False
        return True

    def alloc(self, node: int) -> Frame | None:
        """Try to grab a 2 MiB block on ``node``; ``None`` -> fall back to
        4 KiB (fragmentation, Fig. 11). The caller counts ``huge_mapped``
        once the window is mapped."""
        try:
            return self.physmem.alloc_huge_frame(node, kind=FrameKind.DATA)
        except OutOfMemoryError:
            self.stats.fallbacks += 1
            return None

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
        the VMA, and no 4 KiB page of the window already mapped or swapped
        out (a huge mapping would cover the swapped page's swap-in).
        """
        if not vma.use_huge:
            return False
        window = va & ~(HUGE_PAGE_SIZE - 1)
        if window < vma.start or window + HUGE_PAGE_SIZE > vma.end:
            return False
        frames, swapped = mm.frames, mm.swapped
        for page in range(window, window + HUGE_PAGE_SIZE, PAGE_SIZE):
            if page in frames or page in swapped:
                return False
        return True

    def alloc(self, node: int) -> Frame | None:
        """Try to grab a 2 MiB block on ``node``; ``None`` -> fall back to
        4 KiB (fragmentation, Fig. 11)."""
        try:
            frame = self.physmem.alloc_huge_frame(node, kind=FrameKind.DATA)
        except OutOfMemoryError:
            self.stats.fallbacks += 1
            return None
        self.stats.huge_mapped += 1
        return frame

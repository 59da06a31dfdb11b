"""Physical frame metadata — the simulator's ``struct page``.

Linux keeps one ``struct page`` per 4 KiB physical frame; Mitosis threads a
circular linked list through this metadata so that, given any one replica of
a page-table page, all other replicas can be found without walking their
trees (Fig. 8). We reproduce exactly that: :class:`Frame` records which NUMA
node the frame lives on, what it is used for, and the ``replica_next``
pointer of the ring.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.units import PAGE_SIZE


class FrameKind(enum.Enum):
    """What a physical frame is currently used for."""

    FREE = "free"
    DATA = "data"
    PAGE_TABLE = "page-table"
    #: Frames consumed by the fragmentation injector to destroy contiguity.
    PINNED = "pinned"


@dataclass(slots=True)
class Frame:
    """Metadata for one 4 KiB physical frame.

    Attributes:
        pfn: Physical frame number (``physical address >> 12``).
        node: NUMA node the frame's DRAM belongs to.
        kind: Current use of the frame.
        replica_next: PFN of the next replica in the circular replica ring,
            or ``None`` when the frame is not part of a replicated
            page-table. A singleton ring points at itself.
        order: log2 of the number of base frames in the allocation this
            frame heads (0 for a 4 KiB frame, 9 for a 2 MiB block).
    """

    pfn: int
    node: int
    kind: FrameKind = FrameKind.FREE
    replica_next: int | None = field(default=None)
    order: int = 0

    @property
    def nbytes(self) -> int:
        """Size of the allocation this frame heads."""
        return PAGE_SIZE << self.order

"""Data-page migration mechanics.

Used by AutoNUMA balancing and by whole-process migration: copy a mapped
page's contents to a frame on the target node and rewrite the leaf PTE to
point at the new frame (through PV-Ops, so Mitosis replicas stay
consistent). Page-*table* pages are untouched — commodity Linux cannot
migrate them (§1), which is the whole point of Mitosis; the replicating
backend gets its own migration path in :mod:`repro.mitosis.migration`.
"""

from __future__ import annotations

from repro.errors import OutOfMemoryError
from repro.kernel.costs import WorkCounters
from repro.kernel.process import MemoryDescriptor
from repro.mem.allocator import HUGE_ORDER
from repro.mem.frame import FrameKind
from repro.mem.physmem import PhysicalMemory
from repro.paging.pte import make_pte, pte_flags, pte_pfn


def migrate_mapped_page(
    physmem: PhysicalMemory,
    mm: MemoryDescriptor,
    va: int,
    target_node: int,
    work: WorkCounters,
) -> bool:
    """Move the data page mapped at leaf VA ``va`` to ``target_node``.

    Returns False (leaving the page in place) when the target node cannot
    supply a frame of the right size — huge pages in particular may fail
    under fragmentation.
    """
    frame = mm.frames[va]
    if frame.node == target_node:
        return False
    try:
        if frame.order == HUGE_ORDER:
            new_frame = physmem.alloc_huge_frame(target_node, kind=FrameKind.DATA)
        else:
            new_frame = physmem.alloc_frame(target_node, kind=FrameKind.DATA)
    except OutOfMemoryError:
        return False
    tree = mm.tree
    location = tree.leaf_location(va)
    assert location is not None, "mapped frame without a leaf PTE"
    entry = location.page.entries[location.index]
    assert pte_pfn(entry) == frame.pfn
    with mm.lock():
        tree.ops.set_pte(tree, location.page, location.index, make_pte(new_frame.pfn, pte_flags(entry)))
    physmem.free(frame)
    mm.frames[va] = new_frame
    work.pages_copied += 1 << frame.order
    return True


def migrate_all_data(
    physmem: PhysicalMemory,
    mm: MemoryDescriptor,
    target_node: int,
) -> WorkCounters:
    """Move every data page of ``mm`` to ``target_node`` (what NUMA-aware
    OSes do for a migrated process while leaving page-tables behind)."""
    work = WorkCounters()
    for va in list(mm.frames):
        migrate_mapped_page(physmem, mm, va, target_node, work)
    return work

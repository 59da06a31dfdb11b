"""Consistency checking — the simulator's lockdep/KASAN.

:func:`validate_mm` cross-checks every view the kernel keeps of one
address space: the VMA list, the frame bookkeeping, the page-table tree
(all replicas) and the swap state must tell the same story. Tests and the
stateful fuzzer call it after every mutation; library users can call it
when debugging policies built on top.
"""

from __future__ import annotations

from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.mem.allocator import HUGE_ORDER
from repro.mitosis.ring import ring_members
from repro.paging.pte import pte_pfn, pte_present
from repro.units import PAGE_SIZE


class ConsistencyError(AssertionError):
    """An internal invariant of the simulated kernel was violated."""


def validate_mm(
    kernel: Kernel, process: Process, allow_divergent_leaves: bool = False
) -> None:
    """Raise :class:`ConsistencyError` on any cross-view mismatch.

    ``allow_divergent_leaves`` relaxes the replica-agreement check for
    processes using data-page replication (:mod:`repro.datarepl`), whose
    leaf PFNs legitimately differ per socket.
    """
    mm = process.mm
    tree = mm.tree

    # 1. Every mapped frame has a leaf PTE with the right PFN; every leaf
    #    mapping has a frame record; swap entries overlap neither.
    tree_mappings = dict(tree.iter_mappings())
    if set(tree_mappings) != set(mm.frames):
        extra = set(tree_mappings) ^ set(mm.frames)
        raise ConsistencyError(f"frames/tree leaf mismatch at {sorted(extra)[:4]}")
    for va, frame in mm.frames.items():
        translation = tree_mappings[va]
        if pte_pfn_of(translation) != frame.pfn:
            raise ConsistencyError(
                f"va 0x{va:x}: tree maps pfn {pte_pfn_of(translation)}, "
                f"frames record {frame.pfn}"
            )
        if (frame.order == HUGE_ORDER) != (translation.level == 2):
            raise ConsistencyError(f"va 0x{va:x}: huge flag mismatch")
    overlap = set(mm.swapped) & set(mm.frames)
    if overlap:
        raise ConsistencyError(f"pages both resident and swapped: {sorted(overlap)[:4]}")

    # 2. Every mapping and swap entry lies inside some VMA.
    for va in list(mm.frames) + list(mm.swapped):
        if mm.vmas.find(va) is None:
            raise ConsistencyError(f"va 0x{va:x} mapped outside any VMA")

    # 3. Rings: unique sockets, closed, registry-complete; replicas agree
    #    with their primary on every leaf value (modulo A/D bits).
    seen: set[int] = set()
    for page in tree.iter_tables():
        members = ring_members(tree, page)
        nodes = [m.node for m in members]
        if len(nodes) != len(set(nodes)):
            raise ConsistencyError(f"duplicate socket in ring of pfn {page.pfn}")
        seen.update(m.pfn for m in members)
        if page.level == 1 and not allow_divergent_leaves:
            from repro.paging.pte import PTE_AD_BITS

            for member in members:
                for index in range(512):
                    a = page.entries[index] & ~PTE_AD_BITS
                    b = member.entries[index] & ~PTE_AD_BITS
                    if a != b:
                        raise ConsistencyError(
                            f"leaf divergence pfn {member.pfn}[{index}]"
                        )
    if seen != set(tree.registry):
        raise ConsistencyError("registry contains unreachable table pages")

    # 4. Per-page valid counts match their entries.
    for page in tree.registry.values():
        actual = sum(1 for e in page.entries if pte_present(e))
        if actual != page.valid_count:
            raise ConsistencyError(
                f"pfn {page.pfn}: valid_count {page.valid_count} != {actual}"
            )

    # 5. Frame metadata agrees with the allocator's node partition.
    for frame in mm.frames.values():
        if kernel.physmem.node_of_pfn(frame.pfn) != frame.node:
            raise ConsistencyError(f"frame {frame.pfn} node mismatch")


def pte_pfn_of(translation) -> int:
    return translation.pfn


def validate_all(kernel: Kernel) -> None:
    """Validate every live process."""
    for process in kernel.processes.values():
        validate_mm(kernel, process)

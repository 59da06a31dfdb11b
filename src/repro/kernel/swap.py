"""Page reclaim and swap — the consumer of accessed/dirty bits.

§5.4: A/D bits "are used by the OS for system-level operations like
swapping or writing back memory-mapped files". This module is that
consumer: a clock-style (second-chance) reclaimer that scans accessed bits
to find idle pages, swaps them out (writing back dirty ones), and swaps
them back in on demand faults.

It matters for Mitosis because the scan *must* read A/D bits through the
PV-Ops get functions that OR across replicas, and reset them in **all**
replicas: a reclaimer that read only one copy would see a page as idle
even while another socket hammers it through its local replica — and evict
hot memory. The test-suite demonstrates exactly that failure mode against
a deliberately broken scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidMappingError, OutOfMemoryError
from repro.inject.plan import SITE_SWAP_STALL
from repro.kernel.process import Process
from repro.mem.allocator import HUGE_ORDER
from repro.mem.physmem import PhysicalMemory
from repro.paging.pte import PTE_ACCESSED, PTE_DIRTY
from repro.tlb.mmu_cache import MmuCaches
from repro.tlb.shootdown import TlbShootdown
from repro.tlb.tlb import TlbHierarchy
from repro.units import PAGE_SIZE

#: Cost of writing one 4 KiB page to the swap device.
SWAP_OUT_CYCLES = 50_000.0
#: Cost of reading one back on a major fault.
SWAP_IN_CYCLES = 80_000.0
#: Extra cycles charged by an injected transient I/O stall whose rule does
#: not specify its own ``stall_cycles`` (a device hiccup of a few I/Os).
DEFAULT_STALL_CYCLES = 4 * SWAP_IN_CYCLES


@dataclass(frozen=True)
class SwapEntry:
    """Where a swapped-out page's contents live."""

    slot: int
    prot: int


@dataclass
class SwapDevice:
    """A fixed-size swap area (slot-granular).

    Never-used slots come from a bump cursor so a large device costs
    nothing until it is actually written.
    """

    capacity_slots: int
    _bump: int = field(init=False, default=0)
    _recycled: list[int] = field(init=False, default_factory=list)
    _used: set[int] = field(init=False, default_factory=set)

    def __post_init__(self) -> None:
        if self.capacity_slots <= 0:
            raise ValueError("swap device needs at least one slot")

    def alloc_slot(self) -> int:
        if self._recycled:
            slot = self._recycled.pop()
        elif self._bump < self.capacity_slots:
            slot = self._bump
            self._bump += 1
        else:
            raise OutOfMemoryError(None, PAGE_SIZE, "swap device full")
        self._used.add(slot)
        return slot

    def free_slot(self, slot: int) -> None:
        self._used.discard(slot)
        self._recycled.append(slot)

    @property
    def used_slots(self) -> int:
        return len(self._used)


@dataclass
class SwapStats:
    scans: int = 0
    pages_swapped_out: int = 0
    pages_swapped_in: int = 0
    dirty_writebacks: int = 0
    second_chances: int = 0
    #: Injected transient I/O stalls (and the cycles they cost).
    io_stalls: int = 0
    stall_cycles: float = 0.0


class SwapManager:
    """Clock-style reclaim over one kernel's processes.

    It holds the kernel parts it uses, not the kernel: the physical
    memory it frees and allocates, and the shootdown with the contexts
    it flushes."""

    def __init__(
        self,
        physmem: PhysicalMemory,
        shootdown: TlbShootdown,
        cpu_contexts: list[tuple[TlbHierarchy, MmuCaches]],
        device: SwapDevice | None = None,
    ):
        self.physmem = physmem
        self.shootdown = shootdown
        self.cpu_contexts = cpu_contexts
        self.device = device or SwapDevice(capacity_slots=1 << 20)
        self.stats = SwapStats()
        #: Optional :class:`repro.inject.plan.FaultPlan` for I/O stalls.
        self.fault_plan = None

    def _maybe_stall(self, op: str) -> float:
        """Consult the fault plan for a transient I/O stall; returns the
        extra cycles (the I/O always completes — stalls cost time only)."""
        plan = self.fault_plan
        if plan is None:
            return 0.0
        rule = plan.fire(SITE_SWAP_STALL, op=op)
        if rule is None:
            return 0.0
        extra = rule.stall_cycles or DEFAULT_STALL_CYCLES
        self.stats.io_stalls += 1
        self.stats.stall_cycles += extra
        return extra

    # -- idle detection (the A/D consumer) -----------------------------------------

    def scan_idle(self, process: Process, give_second_chance: bool = True) -> list[int]:
        """One clock pass: return VAs of pages whose accessed bit is clear.

        Pages found accessed get their A/D bits reset *in every replica*
        (second chance); they become candidates on the next pass unless
        re-touched. 2 MiB pages are skipped (Linux splits before swapping;
        we simply never pick them).
        """
        self.stats.scans += 1
        mm = process.mm
        tree = mm.tree
        idle: list[int] = []
        for va, frame in sorted(mm.frames.items()):
            if frame.order == HUGE_ORDER:
                continue
            location = tree.leaf_location(va)
            assert location is not None
            entry = tree.ops.read_pte(tree, location.page, location.index)
            if entry & PTE_ACCESSED:
                if give_second_chance:
                    tree.ops.clear_ad_bits(tree, location.page, location.index)
                    self.stats.second_chances += 1
            else:
                idle.append(va)
        return idle

    def is_dirty(self, process: Process, va: int) -> bool:
        """Dirty as the OS must see it: ORed across replicas."""
        tree = process.mm.tree
        location = tree.leaf_location(va)
        if location is None:
            raise InvalidMappingError(f"va 0x{va:x} is not mapped")
        return bool(tree.ops.read_pte(tree, location.page, location.index) & PTE_DIRTY)

    # -- swap out / in ---------------------------------------------------------------

    def swap_out(self, process: Process, va: int) -> float:
        """Evict one mapped 4 KiB page; returns cycles (I/O + unmapping)."""
        mm = process.mm
        frame = mm.frames.get(va)
        if frame is None or frame.order == HUGE_ORDER:
            raise InvalidMappingError(f"va 0x{va:x} has no swappable 4 KiB page")
        cycles = SWAP_OUT_CYCLES + self._maybe_stall("out")
        if self.is_dirty(process, va):
            self.stats.dirty_writebacks += 1  # clean pages skip the write in
            # real kernels; we charge the same I/O either way for simplicity
        slot = self.device.alloc_slot()
        with mm.lock():
            removed = mm.tree.unmap_page(va)
        mm.swapped[va] = SwapEntry(slot=slot, prot=removed.flags)
        self.physmem.free(frame)
        del mm.frames[va]
        cycles += self.shootdown.flush_all(self.cpu_contexts)
        self.stats.pages_swapped_out += 1
        return cycles

    def swap_in(self, process: Process, va: int, socket: int) -> float:
        """Service a major fault: bring a swapped page back.

        If the frame allocation or the mapping fails (an OOM, possibly of
        a page table), the page stays swapped out in the same slot and
        the frame goes back before the error propagates, so a retry is
        again a major fault.
        """
        mm = process.mm
        entry = mm.swapped.get(va)
        if entry is None:
            raise InvalidMappingError(f"va 0x{va:x} is not swapped out")
        vma = mm.vmas.find(va)
        assert vma is not None, "swapped page outside any VMA"
        policy = vma.data_policy or mm.data_policy
        frame = self.physmem.alloc_frame_fallback(policy.choose_node(socket))
        try:
            with mm.lock():
                mm.tree.map_page(va, frame.pfn, entry.prot, node_hint=socket)
        except BaseException:
            self.physmem.free(frame)
            raise
        del mm.swapped[va]
        mm.frames[va] = frame
        self.device.free_slot(entry.slot)
        self.stats.pages_swapped_in += 1
        return SWAP_IN_CYCLES + self._maybe_stall("in")

    def reclaim(self, process: Process, target_pages: int, max_passes: int = 3) -> int:
        """Evict up to ``target_pages`` idle pages (clock loop)."""
        evicted = 0
        for _ in range(max_passes):
            if evicted >= target_pages:
                break
            for va in self.scan_idle(process):
                if evicted >= target_pages:
                    break
                self.swap_out(process, va)
                evicted += 1
        return evicted

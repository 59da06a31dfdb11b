"""The VM syscall surface: mmap / munmap / mprotect / mempolicy / migrate.

Each syscall returns the cycles it cost, computed from the physical effects
it caused (PTE writes including replicas, ring hops, table allocations,
data-page zeroing/freeing, shootdowns). Table 5 benchmarks these costs
with Mitosis on and off; Table 6 uses them for end-to-end overhead.

Implemented as a mixin so :class:`repro.kernel.kernel.Kernel` exposes them
as methods.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidMappingError
from repro.kernel.costs import WorkCounters, syscall_cycles
from repro.kernel.policy import PlacementPolicy
from repro.kernel.process import MemoryDescriptor, Process
from repro.kernel.vma import PROT_DEFAULT, Vma
from repro.mem.allocator import HUGE_ORDER
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE, page_align_up


@dataclass(frozen=True)
class SyscallResult:
    """Outcome of one VM syscall."""

    value: int
    cycles: float


class VmSyscalls:
    """Syscall implementations; mixed into ``Kernel``.

    Relies on the host class providing ``physmem``, ``sysctl``,
    ``fault_handler``, ``scheduler``, ``shootdown`` and ``cpu_contexts``.
    """

    def sys_mmap(
        self,
        process: Process,
        length: int,
        prot: int = PROT_DEFAULT,
        populate: bool = False,
        fixed_va: int | None = None,
        data_policy: PlacementPolicy | None = None,
        use_huge: bool = True,
        name: str = "anon",
    ) -> SyscallResult:
        """Create an anonymous mapping; returns its VA and the cycle cost.

        ``populate`` is MAP_POPULATE: fault in every page eagerly on the
        calling thread's socket (which makes placement deterministic — how
        the paper pre-allocates working sets for the migration scenario).
        """
        mm = process.mm
        length = page_align_up(length)
        align = HUGE_PAGE_SIZE if (self.sysctl.thp_enabled and use_huge) else PAGE_SIZE
        if fixed_va is None:
            va = mm.vmas.find_free_region(length, align=align)
        else:
            va = fixed_va
        vma = Vma(
            start=va,
            end=va + length,
            prot=prot,
            name=name,
            data_policy=data_policy,
            use_huge=use_huge,
        )
        mm.vmas.insert(vma)
        before = mm.tree.ops.stats.snapshot()
        work = WorkCounters()
        if populate:
            work = self.fault_handler.populate(
                process,
                va,
                va + length,
                process.home_socket,
                allow_huge=self.sysctl.thp_enabled and use_huge,
            )
        delta = mm.tree.ops.stats.delta(before)
        return SyscallResult(value=va, cycles=syscall_cycles(delta, work))

    def sys_munmap(self, process: Process, va: int, length: int) -> SyscallResult:
        """Remove mappings over ``[va, va+length)`` and free their memory.

        Like Linux's ``zap_pte_range``, the work goes one leaf table at a
        time: one ``mm.lock()``, one descent and one PV-Ops run write per
        run of mapped slots, then one collection of the emptied tables.
        """
        mm = process.mm
        length = page_align_up(length)
        end = va + length
        self._check_range(mm, va, end, "munmap")
        mm.vmas.remove_range(va, end)
        before = mm.tree.ops.stats.snapshot()
        work = WorkCounters()
        frames, free = mm.frames, self.physmem.free

        def release(base: int) -> None:
            frame = frames.pop(base)
            free(frame)
            work.pages_freed += 1 << frame.order

        pos = va
        while pos < end:
            with mm.lock():
                pos = mm.tree.unmap_range(pos, end, release)
        # Pages sitting on the swap device in this range are gone too.
        for base in [b for b in mm.swapped if va <= b < end]:
            entry = mm.swapped.pop(base)
            self.swap.device.free_slot(entry.slot)
        shoot = self.shootdown.flush_all(self.cpu_contexts)
        delta = mm.tree.ops.stats.delta(before)
        return SyscallResult(value=0, cycles=syscall_cycles(delta, work, shoot))

    def sys_mprotect(self, process: Process, va: int, length: int, prot: int) -> SyscallResult:
        """Change protection over ``[va, va+length)``.

        The read-modify-write over every mapped PTE in the range is the
        operation whose cost replication multiplies hardest (Table 5).
        Like Linux's ``change_pte_range``, it goes one leaf table at a
        time: one ``mm.lock()``, one descent and one PV-Ops run write per
        run of mapped slots.
        """
        mm = process.mm
        length = page_align_up(length)
        end = va + length
        self._check_range(mm, va, end, "mprotect")
        mm.vmas.protect_range(va, end, prot)
        before = mm.tree.ops.stats.snapshot()
        pos = va
        while pos < end:
            with mm.lock():
                pos = mm.tree.protect_range(pos, end, prot)
        shoot = self.shootdown.flush_all(self.cpu_contexts)
        delta = mm.tree.ops.stats.delta(before)
        return SyscallResult(value=0, cycles=syscall_cycles(delta, WorkCounters(), shoot))

    def sys_migrate_process(
        self,
        process: Process,
        target_socket: int,
        migrate_data: bool = True,
    ) -> SyscallResult:
        """Move a process (and optionally its data) to another socket."""
        self.machine.socket(target_socket)
        before = process.mm.tree.ops.stats.snapshot()
        work = self.scheduler.migrate_process(process, target_socket, migrate_data=migrate_data)
        shoot = self.shootdown.flush_all(self.cpu_contexts)
        delta = process.mm.tree.ops.stats.delta(before)
        return SyscallResult(value=0, cycles=syscall_cycles(delta, work, shoot))

    @staticmethod
    def _check_range(mm: MemoryDescriptor, va: int, end: int, op: str) -> None:
        """Reject a bad munmap/mprotect range before anything changes.

        Only the pages at the two ends of the range can be 2 MiB pages
        it covers in part.

        Raises:
            InvalidMappingError: the range is empty or not page-aligned,
                no VMA overlaps it, or it covers part of a 2 MiB page.
        """
        if va % PAGE_SIZE or end <= va:
            raise InvalidMappingError(f"{op} of bad range 0x{va:x}+{end - va:#x}")
        if not mm.vmas.in_range(va, end):
            raise InvalidMappingError(f"{op} of unmapped range 0x{va:x}+{end - va:#x}")
        for addr in (va, end - 1):
            head = addr & ~(HUGE_PAGE_SIZE - 1)
            frame = mm.frames.get(head)
            if frame is not None and frame.order == HUGE_ORDER and (
                head < va or head + HUGE_PAGE_SIZE > end
            ):
                raise InvalidMappingError(
                    f"{op} range partially covers the 2 MiB page at 0x{head:x}"
                )

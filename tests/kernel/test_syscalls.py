"""VM syscalls: mmap/munmap/mprotect behaviour and cost reporting."""

import pytest

from repro.errors import InvalidMappingError
from repro.mem.allocator import HUGE_ORDER
from repro.paging.pte import PTE_USER, PTE_WRITABLE, pte_writable
from repro.units import HUGE_PAGE_SIZE, MIB, PAGE_SIZE


@pytest.fixture
def proc(kernel2):
    return kernel2.create_process("t", socket=0)


def _vm_state(kernel, process):
    """VMAs, frame records, every table and per-node memory use."""
    mm = process.mm
    return (
        list(mm.vmas),
        [(va, m.pfn, m.order == HUGE_ORDER) for va, m in mm.frames.items()],
        [(pfn, list(page.entries)) for pfn, page in sorted(mm.tree.registry.items())],
        [kernel.physmem.stats(node) for node in (0, 1)],
    )


class TestMmap:
    def test_lazy_mmap_maps_nothing(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, MIB).value
        assert proc.mm.tree.translate(va) is None
        assert proc.mm.vmas.find(va) is not None

    def test_populate_maps_everything(self, kernel2, proc):
        result = kernel2.sys_mmap(proc, 64 * PAGE_SIZE, populate=True)
        for i in range(64):
            assert proc.mm.tree.translate(result.value + i * PAGE_SIZE) is not None

    def test_populate_cost_dominated_by_zeroing(self, kernel2, proc):
        lazy = kernel2.sys_mmap(proc, 64 * PAGE_SIZE)
        eager = kernel2.sys_mmap(proc, 64 * PAGE_SIZE, populate=True)
        assert eager.cycles > 10 * lazy.cycles

    def test_length_rounded_to_pages(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, 100).value
        vma = proc.mm.vmas.find(va)
        assert vma.length == PAGE_SIZE

    def test_fixed_va(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, PAGE_SIZE, fixed_va=0x10000).value
        assert va == 0x10000

    def test_two_mappings_do_not_overlap(self, kernel2, proc):
        a = kernel2.sys_mmap(proc, MIB).value
        b = kernel2.sys_mmap(proc, MIB).value
        assert b >= a + MIB or a >= b + MIB

    def test_thp_mmap_aligns_to_huge(self, kernel2, proc):
        kernel2.sysctl.thp_enabled = True
        va = kernel2.sys_mmap(proc, 4 * MIB).value
        assert va % HUGE_PAGE_SIZE == 0


class TestMunmap:
    def test_munmap_releases_everything(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, 16 * PAGE_SIZE, populate=True).value
        used_before = kernel2.physmem.stats(0).used_frames
        kernel2.sys_munmap(proc, va, 16 * PAGE_SIZE)
        assert proc.mm.tree.translate(va) is None
        assert proc.mm.vmas.find(va) is None
        assert kernel2.physmem.stats(0).used_frames < used_before
        assert proc.mm.frames == {}

    def test_partial_munmap_splits_vma(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, 4 * PAGE_SIZE, populate=True).value
        kernel2.sys_munmap(proc, va + PAGE_SIZE, PAGE_SIZE)
        assert proc.mm.tree.translate(va) is not None
        assert proc.mm.tree.translate(va + PAGE_SIZE) is None
        assert proc.mm.tree.translate(va + 2 * PAGE_SIZE) is not None

    def test_munmap_unmapped_raises(self, kernel2, proc):
        with pytest.raises(InvalidMappingError):
            kernel2.sys_munmap(proc, 0x100000, PAGE_SIZE)

    def test_munmap_counts_shootdown(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, PAGE_SIZE, populate=True).value
        before = kernel2.shootdown.stats.shootdowns
        kernel2.sys_munmap(proc, va, PAGE_SIZE)
        assert kernel2.shootdown.stats.shootdowns == before + 1

    def test_partial_huge_munmap_rejected(self, kernel2, proc):
        kernel2.sysctl.thp_enabled = True
        va = kernel2.sys_mmap(proc, 2 * HUGE_PAGE_SIZE, populate=True).value
        assert proc.mm.frames[va].order == HUGE_ORDER
        before = _vm_state(kernel2, proc)
        with pytest.raises(InvalidMappingError):
            kernel2.sys_munmap(proc, va, PAGE_SIZE)
        assert _vm_state(kernel2, proc) == before
        assert proc.mm.tree.translate(va) is not None
        kernel2.destroy_process(proc)
        assert [kernel2.physmem.stats(n).used_frames for n in (0, 1)] == [0, 0]


class TestMprotect:
    def test_mprotect_updates_ptes_and_vma(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, 4 * PAGE_SIZE, populate=True).value
        kernel2.sys_mprotect(proc, va, 4 * PAGE_SIZE, PTE_USER)
        assert not pte_writable(proc.mm.tree.translate(va).flags)
        assert proc.mm.vmas.find(va).prot == PTE_USER

    def test_mprotect_affects_future_faults(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, 4 * PAGE_SIZE).value
        kernel2.sys_mprotect(proc, va, 4 * PAGE_SIZE, PTE_USER)
        kernel2.fault_handler.handle(proc, va, socket=0)
        assert not pte_writable(proc.mm.tree.translate(va).flags)

    def test_mprotect_unmapped_raises(self, kernel2, proc):
        with pytest.raises(InvalidMappingError):
            kernel2.sys_mprotect(proc, 0x100000, PAGE_SIZE, PTE_USER)

    def test_partial_huge_mprotect_rejected(self, kernel2, proc):
        kernel2.sysctl.thp_enabled = True
        va = kernel2.sys_mmap(proc, 2 * HUGE_PAGE_SIZE, populate=True).value
        before = _vm_state(kernel2, proc)
        with pytest.raises(InvalidMappingError):
            kernel2.sys_mprotect(proc, va + HUGE_PAGE_SIZE - PAGE_SIZE, 2 * PAGE_SIZE, PTE_USER)
        assert _vm_state(kernel2, proc) == before
        assert pte_writable(proc.mm.tree.translate(va + HUGE_PAGE_SIZE).flags)
        kernel2.destroy_process(proc)
        assert [kernel2.physmem.stats(n).used_frames for n in (0, 1)] == [0, 0]

    def test_mprotect_cycles_scale_with_pages(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, 256 * PAGE_SIZE, populate=True).value
        small = kernel2.sys_mprotect(proc, va, PAGE_SIZE, PTE_USER)
        large = kernel2.sys_mprotect(proc, va, 256 * PAGE_SIZE, PTE_WRITABLE | PTE_USER)
        assert large.cycles > small.cycles


class TestProcessMigration:
    def test_migrate_moves_threads_and_data(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, 8 * PAGE_SIZE, populate=True).value
        assert proc.mm.frames[va].node == 0
        kernel2.sys_migrate_process(proc, 1)
        assert proc.home_socket == 1
        assert all(m.node == 1 for m in proc.mm.frames.values())

    def test_migrate_without_data(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, 8 * PAGE_SIZE, populate=True).value
        kernel2.sys_migrate_process(proc, 1, migrate_data=False)
        assert proc.home_socket == 1
        assert proc.mm.frames[va].node == 0

    def test_migrate_leaves_pagetables_behind(self, kernel2, proc):
        """Commodity-OS behaviour the paper fixes: data moves, PTs do not."""
        kernel2.sys_mmap(proc, 8 * PAGE_SIZE, populate=True)
        kernel2.sys_migrate_process(proc, 1)
        assert all(page.node == 0 for page in proc.mm.tree.iter_tables())

    def test_migration_updates_translations(self, kernel2, proc):
        va = kernel2.sys_mmap(proc, 4 * PAGE_SIZE, populate=True).value
        kernel2.sys_migrate_process(proc, 1)
        tr = proc.mm.tree.translate(va)
        assert kernel2.physmem.node_of_pfn(tr.pfn) == 1

"""AutoNUMA: hint-driven migration, thresholds, rate limiting."""

import pytest

from repro.units import PAGE_SIZE


@pytest.fixture
def proc(kernel2):
    process = kernel2.create_process("t", socket=0)
    kernel2.sys_mmap(process, 16 * PAGE_SIZE, populate=True)
    return process


def hammer(kernel, process, va, socket, times=10):
    for _ in range(times):
        kernel.autonuma.record_access(process, va, socket)


class TestBalance:
    def test_majority_access_migrates_page(self, kernel2, proc):
        va = next(iter(proc.mm.frames))
        assert proc.mm.frames[va].node == 0
        hammer(kernel2, proc, va, socket=1)
        kernel2.autonuma.balance(proc)
        assert proc.mm.frames[va].node == 1
        tr = proc.mm.tree.translate(va)
        assert kernel2.physmem.node_of_pfn(tr.pfn) == 1

    def test_local_majority_keeps_page(self, kernel2, proc):
        va = next(iter(proc.mm.frames))
        hammer(kernel2, proc, va, socket=0)
        kernel2.autonuma.balance(proc)
        assert proc.mm.frames[va].node == 0

    def test_split_access_below_threshold_keeps_page(self, kernel2, proc):
        va = next(iter(proc.mm.frames))
        hammer(kernel2, proc, va, socket=0, times=5)
        hammer(kernel2, proc, va, socket=1, times=5)
        kernel2.autonuma.balance(proc)
        assert proc.mm.frames[va].node == 0

    def test_page_tables_never_migrate(self, kernel2, proc):
        """The paper's §3.1 observation 4, as an invariant."""
        pt_nodes_before = [p.node for p in proc.mm.tree.iter_tables()]
        for va in list(proc.mm.frames):
            hammer(kernel2, proc, va, socket=1)
        kernel2.autonuma.balance(proc)
        assert [p.node for p in proc.mm.tree.iter_tables()] == pt_nodes_before

    def test_rate_limit(self, kernel2, proc):
        kernel2.autonuma.max_migrations_per_pass = 2
        for va in list(proc.mm.frames):
            hammer(kernel2, proc, va, socket=1)
        work = kernel2.autonuma.balance(proc)
        assert work.pages_copied == 2

    def test_migration_work_reported(self, kernel2, proc):
        va = next(iter(proc.mm.frames))
        hammer(kernel2, proc, va, socket=1)
        work = kernel2.autonuma.balance(proc)
        assert work.pages_copied == 1
        assert work.cycles() > 0

    def test_hints_cleared_after_balance(self, kernel2, proc):
        va = next(iter(proc.mm.frames))
        hammer(kernel2, proc, va, socket=1)
        kernel2.autonuma.balance(proc)
        kernel2.autonuma.balance(proc)  # no fresh hints -> no migration back
        assert proc.mm.frames[va].node == 1

    def test_forget_drops_state(self, kernel2, proc):
        va = next(iter(proc.mm.frames))
        hammer(kernel2, proc, va, socket=1)
        kernel2.autonuma.forget(proc)
        kernel2.autonuma.balance(proc)
        assert proc.mm.frames[va].node == 0

    def test_access_to_unmapped_va_ignored(self, kernel2, proc):
        kernel2.autonuma.record_access(proc, 0x7F0000000000, socket=1)
        kernel2.autonuma.balance(proc)  # must not raise

"""Page-table migration (§5.5): eager-free and lazy-keep modes."""

import pytest

from repro.mitosis.migration import migrate_page_tables, migrate_process_with_pagetables
from repro.mitosis.replication import replica_sockets
from repro.units import MIB, PAGE_SIZE


@pytest.fixture
def proc(kernel2):
    process = kernel2.create_process("wm", socket=0)
    kernel2.sys_mmap(process, MIB, populate=True)
    return process


class TestPtMigration:
    def test_eager_migration_moves_all_tables(self, kernel2, proc):
        assert all(p.node == 0 for p in proc.mm.tree.iter_tables())
        result = migrate_page_tables(kernel2, proc, target_socket=1)
        assert result.origin_freed
        assert all(p.node == 1 for p in proc.mm.tree.iter_tables())
        assert replica_sockets(proc.mm.tree) == frozenset({1})

    def test_translations_survive_migration(self, kernel2, proc):
        before = dict(proc.mm.tree.iter_mappings())
        migrate_page_tables(kernel2, proc, target_socket=1)
        assert dict(proc.mm.tree.iter_mappings()) == before

    def test_eager_free_releases_origin_memory(self, kernel2, proc):
        pt0_before = kernel2.physmem.page_table_bytes(0)
        assert pt0_before > 0
        migrate_page_tables(kernel2, proc, target_socket=1)
        assert kernel2.physmem.page_table_bytes(0) == 0
        assert kernel2.physmem.page_table_bytes(1) == pt0_before

    def test_lazy_mode_keeps_origin_consistent(self, kernel2, proc):
        result = migrate_page_tables(kernel2, proc, target_socket=1, free_origin=False)
        assert not result.origin_freed
        assert replica_sockets(proc.mm.tree) == frozenset({0, 1})
        assert proc.mm.replication_mask == frozenset({0, 1})

    def test_lazy_mode_allows_cheap_migration_back(self, kernel2, proc):
        migrate_page_tables(kernel2, proc, target_socket=1, free_origin=False)
        tables_before = proc.mm.tree.total_table_count()
        result = migrate_page_tables(kernel2, proc, target_socket=0, free_origin=False)
        # Socket 0 already had copies: nothing new to build.
        assert result.tables_copied == 0
        assert proc.mm.tree.total_table_count() == tables_before

    def test_migration_cost_reported(self, kernel2, proc):
        result = migrate_page_tables(kernel2, proc, target_socket=1)
        assert result.cycles > 0
        assert result.tables_copied == len(list(proc.mm.tree.iter_tables()))

    def test_shootdown_issued(self, kernel2, proc):
        before = kernel2.shootdown.stats.shootdowns
        migrate_page_tables(kernel2, proc, target_socket=1)
        assert kernel2.shootdown.stats.shootdowns == before + 1

    def test_invalid_target_rejected(self, kernel2, proc):
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            migrate_page_tables(kernel2, proc, target_socket=7)


class TestFullProcessMigration:
    def test_threads_data_and_tables_all_move(self, kernel2, proc):
        migrate_process_with_pagetables(kernel2, proc, target_socket=1)
        assert proc.home_socket == 1
        assert all(m.node == 1 for m in proc.mm.frames.values())
        assert all(p.node == 1 for p in proc.mm.tree.iter_tables())

    def test_data_can_stay(self, kernel2, proc):
        migrate_process_with_pagetables(kernel2, proc, target_socket=1, migrate_data=False)
        assert proc.home_socket == 1
        assert all(m.node == 0 for m in proc.mm.frames.values())
        assert all(p.node == 1 for p in proc.mm.tree.iter_tables())

    def test_post_migration_faults_allocate_locally(self, kernel2, proc):
        migrate_process_with_pagetables(kernel2, proc, target_socket=1)
        va = kernel2.sys_mmap(proc, 4 * PAGE_SIZE).value
        kernel2.fault_handler.handle(proc, va, socket=1)
        assert proc.mm.frames[va].node == 1
        # New page-table pages land locally too (first-touch after collapse).
        assert all(p.node == 1 for p in proc.mm.tree.iter_tables())

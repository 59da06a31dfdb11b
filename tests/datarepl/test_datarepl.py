"""Data-page replication: per-socket locality, write collapse, accounting."""

import pytest

from repro.datarepl.manager import DataReplicationManager
from repro.errors import ReplicationError
from repro.paging.walker import HardwareWalker
from repro.units import MIB, PAGE_SIZE


@pytest.fixture
def setup(kernel4):
    process = kernel4.create_process("dr", socket=0)
    kernel4.sys_mmap(process, MIB, populate=True)
    kernel4.mitosis.replicate_on_all_sockets(process)
    return kernel4, process, DataReplicationManager(kernel4)


class TestReplicatePages:
    def test_requires_pagetable_replication(self, kernel4):
        process = kernel4.create_process("plain", socket=0)
        kernel4.sys_mmap(process, PAGE_SIZE, populate=True)
        with pytest.raises(ReplicationError):
            DataReplicationManager(kernel4).replicate_pages(process)

    def test_each_socket_reads_its_local_copy(self, setup):
        kernel, process, manager = setup
        manager.replicate_pages(process)
        walker = HardwareWalker(process.mm.tree)
        va = next(iter(process.mm.frames))
        pfns = {}
        for socket in range(4):
            result = walker.walk(va, socket, set_ad_bits=False)
            pfn = result.translation.pfn
            assert kernel.physmem.node_of_pfn(pfn) == socket
            pfns[socket] = pfn
        assert len(set(pfns.values())) == 4  # four distinct physical copies

    def test_memory_accounting(self, setup):
        kernel, process, manager = setup
        manager.replicate_pages(process)
        pages = len(process.mm.frames)
        # 3 extra copies per page on a 4-socket machine.
        assert manager.extra_bytes(process) == 3 * pages * PAGE_SIZE
        assert manager.stats.pages_replicated == pages

    def test_max_pages_bound(self, setup):
        kernel, process, manager = setup
        replicated = manager.replicate_pages(process, max_pages=5)
        assert replicated == 5
        assert manager.stats.pages_replicated == 5

    def test_idempotent(self, setup):
        kernel, process, manager = setup
        manager.replicate_pages(process)
        again = manager.replicate_pages(process)
        assert again == 0


class TestWriteCollapse:
    def test_write_collapses_to_single_frame(self, setup):
        kernel, process, manager = setup
        manager.replicate_pages(process)
        va = next(iter(process.mm.frames))
        cycles = manager.handle_write(process, va, writing_socket=2)
        assert cycles > 0
        assert not manager.is_replicated(process, va)
        walker = HardwareWalker(process.mm.tree)
        pfns = {walker.walk(va, s, set_ad_bits=False).translation.pfn for s in range(4)}
        assert len(pfns) == 1
        # The surviving copy sits on the writer's socket.
        assert kernel.physmem.node_of_pfn(pfns.pop()) == 2

    def test_write_to_unreplicated_page_is_free(self, setup):
        kernel, process, manager = setup
        va = next(iter(process.mm.frames))
        assert manager.handle_write(process, va, writing_socket=0) == 0.0

    def test_collapse_frees_copy_memory(self, setup):
        kernel, process, manager = setup
        used_before = kernel.physmem.total_used_bytes()
        manager.replicate_pages(process)
        manager.collapse_all(process)
        assert manager.extra_bytes(process) == 0
        assert kernel.physmem.total_used_bytes() == used_before

    def test_mapped_frame_bookkeeping_follows_collapse(self, setup):
        kernel, process, manager = setup
        manager.replicate_pages(process)
        va = next(iter(process.mm.frames))
        manager.handle_write(process, va, writing_socket=3)
        assert process.mm.frames[va].node == 3


class TestOverheadComparison:
    def test_data_replication_costs_orders_of_magnitude_more(self, kernel4):
        """The paper's §2.3 argument, quantified (a footprint big enough
        that the 16 KiB page-table floor stops dominating)."""
        kernel = kernel4
        process = kernel.create_process("big", socket=0)
        kernel.sys_mmap(process, 24 * MIB, populate=True)
        kernel.mitosis.replicate_on_all_sockets(process)
        manager = DataReplicationManager(kernel)
        footprint = process.mm.mapped_bytes()
        pt_single = kernel.physmem.page_table_bytes() / 4  # 4 copies exist
        pt_extra = 3 * pt_single  # what Mitosis added
        manager.replicate_pages(process)
        data_extra = manager.extra_bytes(process)
        assert data_extra / footprint > 2.9  # ~(N-1) x footprint
        assert pt_extra / footprint < 0.01  # well under a percent
        assert data_extra > 300 * pt_extra

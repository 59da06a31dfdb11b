"""Replica shrinking and memory-pressure reclamation (§5.5 lazy dealloc)."""

import pytest

from repro.mitosis.reclaim import reclaim_replicas
from repro.mitosis.replication import replica_sockets, shrink_replication
from repro.paging.walker import HardwareWalker
from repro.units import MIB, PAGE_SIZE


@pytest.fixture
def replicated(kernel4):
    process = kernel4.create_process("app", socket=0)
    kernel4.sys_mmap(process, MIB, populate=True)
    kernel4.mitosis.replicate_on_all_sockets(process)
    return kernel4, process


class TestShrink:
    def test_shrink_frees_only_requested_sockets(self, replicated):
        kernel, process = replicated
        tree = process.mm.tree
        total = tree.total_table_count()
        per_copy = tree.table_count()
        freed = shrink_replication(tree, kernel.pagecache, frozenset({2, 3}))
        assert freed == 2 * per_copy
        assert tree.total_table_count() == total - freed
        assert replica_sockets(tree) == frozenset({0, 1})

    def test_translations_survive(self, replicated):
        kernel, process = replicated
        before = dict(process.mm.tree.iter_mappings())
        shrink_replication(process.mm.tree, kernel.pagecache, frozenset({1, 2}))
        assert dict(process.mm.tree.iter_mappings()) == before

    def test_remaining_sockets_still_walk_locally(self, replicated):
        kernel, process = replicated
        tree = process.mm.tree
        shrink_replication(tree, kernel.pagecache, frozenset({2, 3}))
        walker = HardwareWalker(tree)
        for socket in (0, 1):
            result = walker.walk(next(iter(process.mm.frames)), socket, set_ad_bits=False)
            assert all(a.node == socket for a in result.accesses)

    def test_dropped_socket_falls_back_to_valid_walk(self, replicated):
        kernel, process = replicated
        tree = process.mm.tree
        shrink_replication(tree, kernel.pagecache, frozenset({3}))
        result = HardwareWalker(tree).walk(
            next(iter(process.mm.frames)), socket=3, set_ad_bits=False
        )
        assert not result.faulted  # remote but correct

    def test_shrink_to_single_copy_restores_native(self, replicated):
        kernel, process = replicated
        from repro.kernel.pvops import NativePagingOps

        tree = process.mm.tree
        shrink_replication(tree, kernel.pagecache, frozenset({1, 2, 3}))
        assert isinstance(tree.ops, NativePagingOps)
        assert tree.total_table_count() == tree.table_count()
        for page in tree.iter_tables():
            assert page.frame.replica_next is None

    def test_post_shrink_mutations_consistent(self, replicated):
        kernel, process = replicated
        tree = process.mm.tree
        shrink_replication(tree, kernel.pagecache, frozenset({2, 3}))
        pfn = kernel.physmem.alloc_frame(0).pfn
        tree.map_page(0x40000000, pfn, 7)
        walker = HardwareWalker(tree)
        for socket in (0, 1):
            result = walker.walk(0x40000000, socket, set_ad_bits=False)
            assert result.translation.pfn == pfn
            assert all(a.node == socket for a in result.accesses)


class TestReclaim:
    def test_reclaims_unused_socket_replicas_first(self, replicated):
        kernel, process = replicated  # threads only on socket 0
        free_before = kernel.physmem.stats(3).free_frames
        report = reclaim_replicas(kernel, node=3, target_free_frames=free_before + 1)
        assert report.tables_freed > 0
        assert process.pid in report.processes_shrunk
        assert 3 not in (process.mm.replication_mask or frozenset())

    def test_spares_in_use_replicas_unless_aggressive(self, replicated):
        kernel, process = replicated
        process.add_thread(3)  # socket 3 now in use
        free_before = kernel.physmem.stats(3).free_frames
        report = reclaim_replicas(kernel, node=3, target_free_frames=free_before + 1)
        assert process.pid not in report.processes_shrunk
        report = reclaim_replicas(
            kernel, node=3, target_free_frames=free_before + 1, aggressive=True
        )
        assert process.pid in report.processes_shrunk

    def test_never_reclaims_primary(self, replicated):
        kernel, process = replicated
        report = reclaim_replicas(kernel, node=0, target_free_frames=10**9, aggressive=True)
        assert process.pid not in report.processes_shrunk
        assert process.mm.tree.translate(next(iter(process.mm.frames))) is not None

    def test_stops_at_target(self, replicated):
        kernel, process = replicated
        other = kernel.create_process("other", socket=0)
        kernel.sys_mmap(other, MIB, populate=True)
        kernel.mitosis.replicate_on_all_sockets(other)
        free = kernel.physmem.stats(3).free_frames
        # One process' worth of replicas is enough to hit the target.
        per_copy = process.mm.tree.table_count()
        report = reclaim_replicas(kernel, node=3, target_free_frames=free + per_copy)
        assert len(report.processes_shrunk) == 1

    def test_mask_cleared_when_single_copy_left(self, kernel2):
        process = kernel2.create_process("app", socket=0)
        kernel2.sys_mmap(process, MIB, populate=True)
        kernel2.mitosis.set_replication_mask(process, frozenset({0, 1}))
        free = kernel2.physmem.stats(1).free_frames
        reclaim_replicas(kernel2, node=1, target_free_frames=free + 1)
        assert process.mm.replication_mask is None


class TestReclaimPressure:
    """Multi-process reclamation order (§5.5): insurance replicas go first,
    performance-bearing copies only under ``aggressive=True``, and a ring's
    primary is never freed."""

    HUGE = 10**9  # a target no amount of reclaim can satisfy: shrink all

    def _mapped_proc(self, kernel, name, socket=0):
        process = kernel.create_process(name, socket=socket)
        kernel.sys_mmap(process, 256 * 1024, populate=True)
        return process

    def test_multiple_processes_shrunk_on_one_node(self, kernel4):
        procs = [self._mapped_proc(kernel4, f"app{i}") for i in range(3)]
        for process in procs:
            kernel4.mitosis.set_replication_mask(process, frozenset({0, 1}))
        report = reclaim_replicas(kernel4, 1, target_free_frames=self.HUGE)
        assert sorted(report.processes_shrunk) == sorted(p.pid for p in procs)
        for process in procs:
            assert replica_sockets(process.mm.tree) == frozenset({0})
            assert process.mm.replication_mask is None

    def test_aggressive_shrinks_insurance_before_performance_bearing(self, kernel4):
        insurance = self._mapped_proc(kernel4, "insurance")  # runs on 0 only
        bearing = self._mapped_proc(kernel4, "bearing")
        bearing.add_thread(1)  # actually runs on socket 1
        for process in (insurance, bearing):
            kernel4.mitosis.set_replication_mask(process, frozenset({0, 1}))
        report = reclaim_replicas(
            kernel4, 1, target_free_frames=self.HUGE, aggressive=True
        )
        assert report.processes_shrunk == [insurance.pid, bearing.pid]

    def test_non_aggressive_spares_performance_bearing_copies(self, kernel4):
        insurance = self._mapped_proc(kernel4, "insurance")
        bearing = self._mapped_proc(kernel4, "bearing")
        bearing.add_thread(1)
        for process in (insurance, bearing):
            kernel4.mitosis.set_replication_mask(process, frozenset({0, 1}))
        report = reclaim_replicas(kernel4, 1, target_free_frames=self.HUGE)
        assert report.processes_shrunk == [insurance.pid]
        assert replica_sockets(bearing.mm.tree) == frozenset({0, 1})
        assert bearing.mm.replication_mask == frozenset({0, 1})

    def test_primary_copies_never_freed(self, kernel4):
        rooted_here = self._mapped_proc(kernel4, "rooted", socket=1)
        kernel4.mitosis.set_replication_mask(rooted_here, frozenset({0, 1}))
        assert rooted_here.mm.tree.root.node == 1
        report = reclaim_replicas(
            kernel4, 1, target_free_frames=self.HUGE, aggressive=True
        )
        assert rooted_here.pid not in report.processes_shrunk
        assert replica_sockets(rooted_here.mm.tree) == frozenset({0, 1})

    def test_every_ring_keeps_exactly_one_primary(self, kernel4):
        from repro.mitosis.ring import ring_members

        procs = [self._mapped_proc(kernel4, f"app{i}") for i in range(2)]
        for process in procs:
            kernel4.mitosis.replicate_on_all_sockets(process)
        reclaim_replicas(kernel4, 2, target_free_frames=self.HUGE, aggressive=True)
        for process in procs:
            tree = process.mm.tree
            for primary in tree.iter_tables():
                members = ring_members(tree, primary)
                assert sum(1 for m in members if m.primary is None) == 1
                assert all(m.node != 2 for m in members)


class TestReclaimPageCache:
    def test_only_the_reclaimed_nodes_pool_is_released(self, machine2):
        from repro.kernel.kernel import Kernel
        from repro.kernel.sysctl import MitosisMode, Sysctl

        kernel = Kernel(
            machine2,
            sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS, pt_pagecache_frames=8),
        )
        assert (kernel.pagecache.pooled(0), kernel.pagecache.pooled(1)) == (8, 8)
        report = reclaim_replicas(kernel, node=1, target_free_frames=10**9)
        assert report.tables_freed == 8
        assert (kernel.pagecache.pooled(0), kernel.pagecache.pooled(1)) == (8, 0)
        # The §5.1 reserve target stands: a freed table frame refills the pool.
        kernel.pagecache.free(kernel.pagecache.alloc(1))
        assert kernel.pagecache.pooled(1) == 1

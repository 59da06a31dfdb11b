"""The naive (walk-per-replica) backend: same semantics, 4N-vs-2N cost."""

import pytest

from repro.inject import FaultPlan, install_fault_plan
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.daemon import MitosisDaemon
from repro.mitosis.naive import (
    NaiveMitosisPagingOps,
    naive_update_cost_refs,
    ring_update_cost_refs,
)
from repro.mitosis.replication import enable_replication
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_USER, PTE_WRITABLE
from repro.paging.walker import HardwareWalker
from repro.sim.metrics import RunMetrics
from repro.units import MIB, PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER
MASK = frozenset({0, 1, 2, 3})


@pytest.fixture
def pair(physmem4):
    ring_tree = PageTableTree(MitosisPagingOps(PageTablePageCache(physmem4), MASK))
    naive_tree = PageTableTree(NaiveMitosisPagingOps(PageTablePageCache(physmem4), MASK))
    return ring_tree, naive_tree


class TestNaiveBackend:
    def test_semantics_identical_to_ring_backend(self, pair, physmem4):
        ring_tree, naive_tree = pair
        for i in range(6):
            pfn = physmem4.alloc_frame(i % 4).pfn
            ring_tree.map_page(i * PAGE_SIZE, pfn, FLAGS)
            naive_tree.map_page(i * PAGE_SIZE, pfn, FLAGS)
        for socket in range(4):
            walker_a = HardwareWalker(ring_tree)
            walker_b = HardwareWalker(naive_tree)
            for i in range(6):
                a = walker_a.walk(i * PAGE_SIZE, socket, set_ad_bits=False)
                b = walker_b.walk(i * PAGE_SIZE, socket, set_ad_bits=False)
                assert a.translation.pfn == b.translation.pfn
                assert all(acc.node == socket for acc in b.accesses)

    def test_naive_pays_walk_reads_instead_of_ring_hops(self, pair, physmem4):
        ring_tree, naive_tree = pair
        pfn = physmem4.alloc_frame(0).pfn
        ring_tree.map_page(0x1000, pfn, FLAGS)
        naive_tree.map_page(0x1000, pfn, FLAGS)

        r0 = ring_tree.ops.stats.snapshot()
        n0 = naive_tree.ops.stats.snapshot()
        ring_tree.protect_range(0x1000, 0x2000, PTE_USER)
        naive_tree.protect_range(0x1000, 0x2000, PTE_USER)
        ring_delta = ring_tree.ops.stats.delta(r0)
        naive_delta = naive_tree.ops.stats.delta(n0)

        assert ring_delta.pte_writes == naive_delta.pte_writes == 4
        # naive: 3 upper levels walked per replica for the write; ring: hops.
        assert naive_delta.pte_reads >= ring_delta.pte_reads + 3 * 4
        assert naive_delta.ring_hops == 0
        assert naive_delta.ring_hops < ring_delta.ring_hops

    def test_cost_formulas(self):
        assert naive_update_cost_refs(4) == 16
        assert ring_update_cost_refs(4) == 8
        assert naive_update_cost_refs(1) == 4
        for n in (1, 2, 4, 8, 16):
            assert naive_update_cost_refs(n) == 2 * ring_update_cost_refs(n)


class TestMaskChangesKeepTheNaiveBackend:
    """A mask change swaps the backend for one on the new mask; a naive
    tree must stay naive, with its counters, or the §5.2 ablation would
    quietly measure the ring design instead."""

    @staticmethod
    def _naive(tree, pagecache):
        naive = NaiveMitosisPagingOps(pagecache, tree.ops.mask)
        naive.stats = tree.ops.stats
        tree.ops = naive
        return naive

    @staticmethod
    def _naive_accounting(tree, physmem, va):
        """One leaf update: the naive backend charges walk reads, no hops."""
        before = tree.ops.stats.snapshot()
        tree.map_page(va, physmem.alloc_frame(0).pfn, FLAGS)
        delta = tree.ops.stats.delta(before)
        return delta.ring_hops, delta.pte_reads > 0

    def test_reenable(self, physmem4):
        cache = PageTablePageCache(physmem4)
        tree = PageTableTree(MitosisPagingOps(cache, frozenset({0, 1})))
        tree.map_page(0x1000, physmem4.alloc_frame(0).pfn, FLAGS)
        naive = self._naive(tree, cache)
        stats = naive.stats
        writes = stats.pte_writes
        enable_replication(tree, cache, frozenset({0, 1}))
        assert type(tree.ops) is NaiveMitosisPagingOps
        assert tree.ops.stats is stats and stats.pte_writes == writes
        enable_replication(tree, cache, frozenset({0, 1, 2}))
        assert type(tree.ops) is NaiveMitosisPagingOps
        assert tree.ops.mask == frozenset({0, 1, 2})
        assert tree.ops.stats is stats
        assert self._naive_accounting(tree, physmem4, 0x2000) == (0, True)

    def test_daemon_completing_a_degraded_mask(self, kernel2):
        process = kernel2.create_process("app", socket=0)
        process.add_thread(1)
        kernel2.sys_mmap(process, MIB, populate=True)
        plan = FaultPlan(seed=7)
        plan.pagecache_oom(node=1, limit=4)
        install_fault_plan(kernel2, plan)
        kernel2.mitosis.set_replication_mask(process, frozenset({0, 1}))
        tree = process.mm.tree
        assert process.mm.degraded is not None
        stats = self._naive(tree, kernel2.pagecache).stats
        daemon = MitosisDaemon(manager=kernel2.mitosis, process=process)
        for epoch in range(2):
            daemon.observe(epoch, RunMetrics())
        assert [d.action for d in daemon.decisions] == ["retry-degraded", "complete-mask"]
        assert type(tree.ops) is NaiveMitosisPagingOps
        assert tree.ops.mask == frozenset({0, 1})
        assert tree.ops.stats is stats
        assert self._naive_accounting(tree, kernel2.physmem, 1 << 30) == (0, True)

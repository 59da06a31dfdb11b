"""The TLB generation counter and the batch-validity token
(docs/performance.md).

The vector engine validates whole batches against
``TlbHierarchy.fastpath_token()``; soundness requires that *every*
invalidation path — direct flushes, shootdown IPIs, replication mask
changes, page-table migration — bumps the generation. These tests pin
that contract, plus the ``lookup()`` probe semantics the batch tier
mirrors and the L1 residency ``fastpath_snapshot()`` captures.
"""

from __future__ import annotations

from repro.kernel.policy import FixedNodePolicy
from repro.mitosis.migration import migrate_page_tables
from repro.paging.levels import HUGE_LEAF_LEVEL
from repro.paging.pagetable import Translation
from repro.tlb.mmu_cache import MmuCaches
from repro.tlb.shootdown import TlbShootdown
from repro.tlb.tlb import TlbHierarchy
from repro.units import HUGE_PAGE_SIZE, MIB, PAGE_SIZE


def small(pfn=7):
    return Translation(pfn=pfn, flags=1, level=1)


def huge(pfn=512):
    return Translation(pfn=pfn, flags=1, level=HUGE_LEAF_LEVEL)


class TestCachedTranslation:
    def test_insert_fills_and_probe_returns_pfn(self):
        tlb = TlbHierarchy()
        tlb.insert(0x5000, small(pfn=42))
        assert tlb.lookup(0x5000).pfn == 42

    def test_probe_prefers_4k_like_hardware_lookup(self):
        tlb = TlbHierarchy()
        va = 0x200000
        tlb.insert(va, huge(pfn=900))
        tlb.insert(va, small(pfn=13))
        assert tlb.lookup(va).pfn == 13
        assert tlb.l1_4k.stats.hits == 1
        assert tlb.l1_2m.stats.accesses == 0

    def test_huge_record_covers_the_whole_page(self):
        tlb = TlbHierarchy()
        tlb.insert(0x200000, huge(pfn=900))
        assert tlb.lookup(0x200000 + 17 * PAGE_SIZE).pfn == 900
        # The 4 KiB structure is probed (and misses) first.
        assert tlb.l1_4k.stats.misses == 1
        assert tlb.l1_2m.stats.hits == 1

    def test_miss_returns_none(self):
        tlb = TlbHierarchy()
        assert tlb.lookup(0x5000) is None
        assert tlb.totals.walks == 1


class TestGenerationBumps:
    def test_flush_bumps_and_stales_every_record(self):
        tlb = TlbHierarchy()
        tlb.insert(0x5000, small())
        before = tlb.generation
        tlb.flush()
        assert tlb.generation == before + 1
        _, pairs_4k, pairs_2m = tlb.fastpath_snapshot()
        assert pairs_4k == [] and pairs_2m == []

    def test_invalidate_page_bumps_and_drops_the_page(self):
        tlb = TlbHierarchy()
        tlb.insert(0x5000, small(pfn=1))
        tlb.insert(0x8000, small(pfn=2))
        before = tlb.generation
        tlb.invalidate_page(0x5000)
        assert tlb.generation == before + 1
        _, pairs_4k, _ = tlb.fastpath_snapshot()
        # Only the invalidated page leaves; the other stays resident.
        assert pairs_4k == [(0x8, 2)]

    def test_shootdown_flush_all_bumps_every_core(self):
        cores = [(TlbHierarchy(), MmuCaches()) for _ in range(3)]
        for tlb, _ in cores:
            tlb.insert(0x5000, small())
        before = [tlb.generation for tlb, _ in cores]
        TlbShootdown().flush_all(cores)
        for (tlb, _), gen in zip(cores, before):
            assert tlb.generation > gen
            assert tlb.fastpath_snapshot()[1] == []

    def test_shootdown_flush_page_bumps_every_core(self):
        cores = [(TlbHierarchy(), MmuCaches()) for _ in range(2)]
        for tlb, _ in cores:
            tlb.insert(0x5000, small())
        before = [tlb.generation for tlb, _ in cores]
        TlbShootdown().flush_page(cores, 0x5000)
        for (tlb, _), gen in zip(cores, before):
            assert tlb.generation > gen


class TestFastpathToken:
    def test_token_stable_across_fills_without_eviction(self):
        tlb = TlbHierarchy()
        token = tlb.fastpath_token()
        tlb.insert(0x5000, small())
        # Fills only *add* reach; a snapshot taken before stays sound
        # (conservative), so the token only moves on removal.
        assert tlb.fastpath_token() == token

    def test_token_moves_on_l1_eviction(self):
        tlb = TlbHierarchy()
        token = tlb.fastpath_token()
        ways = tlb.l1_4k.ways
        n_sets = tlb.l1_4k.n_sets
        for i in range(ways + 1):  # same set, one past associativity
            tlb.insert((i * n_sets) << 12, small(pfn=i))
        assert tlb.fastpath_token() != token

    def test_token_moves_on_invalidation(self):
        tlb = TlbHierarchy()
        tlb.insert(0x5000, small())
        token = tlb.fastpath_token()
        tlb.invalidate_page(0x5000)
        assert tlb.fastpath_token() != token


class TestSnapshot:
    def test_snapshot_restamps_survivors_after_selective_invalidation(self):
        tlb = TlbHierarchy()
        tlb.insert(0x5000, small(pfn=1))
        tlb.insert(0x8000, small(pfn=2))
        stale = tlb.fastpath_token()
        tlb.invalidate_page(0x5000)
        token, pairs_4k, pairs_2m = tlb.fastpath_snapshot()
        assert token == tlb.fastpath_token() != stale
        assert (0x8, 2) in pairs_4k  # vpn 0x8000 >> 12, survivor
        assert all(vpn != 0x5 for vpn, _ in pairs_4k)
        assert pairs_2m == []
        # The survivor is still a live L1 hit, not merely a snapshot row.
        assert tlb.lookup(0x8000).pfn == 2


class TestKernelPathsBumpGeneration:
    """The paths the ISSUE names: replication enable/disable, shootdowns
    via VMA ops, and page-table migration must all reach
    flush()/invalidate_page() and bump the generation."""

    def _kernel_process(self, kernel2):
        process = kernel2.create_process(
            "victim", socket=0,
            pt_policy=FixedNodePolicy(0), data_policy=FixedNodePolicy(0),
        )
        process.add_thread(1)
        # Simulator threads register their TLBs here; shootdowns flush them.
        for _ in range(2):
            kernel2.register_cpu_context(TlbHierarchy(), MmuCaches())
        va = kernel2.sys_mmap(process, 2 * MIB, populate=True).value
        return process, va

    def _generations(self, kernel2):
        return [tlb.generation for tlb, _ in kernel2.cpu_contexts]

    def test_enable_and_disable_replication(self, kernel2):
        process, _ = self._kernel_process(kernel2)
        before = self._generations(kernel2)
        kernel2.mitosis.set_replication_mask(process, frozenset({0, 1}))
        mid = self._generations(kernel2)
        assert all(m > b for m, b in zip(mid, before))
        kernel2.mitosis.set_replication_mask(process, None)
        assert all(a > m for a, m in zip(self._generations(kernel2), mid))

    def test_mprotect_shootdown(self, kernel2):
        process, va = self._kernel_process(kernel2)
        before = self._generations(kernel2)
        kernel2.sys_mprotect(process, va, 64 * 1024, 1 << 2)  # read-only
        assert all(a > b for a, b in zip(self._generations(kernel2), before))

    def test_page_table_migration(self, kernel2):
        process, _ = self._kernel_process(kernel2)
        before = self._generations(kernel2)
        migrate_page_tables(kernel2, process, target_socket=1)
        assert all(a > b for a, b in zip(self._generations(kernel2), before))

    def test_munmap_shootdown(self, kernel2):
        process, va = self._kernel_process(kernel2)
        before = self._generations(kernel2)
        kernel2.sys_munmap(process, va, HUGE_PAGE_SIZE)
        assert all(a > b for a, b in zip(self._generations(kernel2), before))

"""One replica-ring builder: eager and background replication build the
same rings, every copy points at its socket-local child, and table walks
see each ring through its primary."""

import pytest

from repro.errors import OutOfMemoryError
from repro.inject import FaultPlan, verify_kernel, verify_tree
from repro.kernel.policy import FirstTouchPolicy, FixedNodePolicy
from repro.kernel.pvops import NativePagingOps
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.background import run_to_completion, start_background_replication
from repro.mitosis.replication import enable_replication, shrink_replication
from repro.mitosis.ring import ring_members
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_USER, PTE_WRITABLE, pte_huge, pte_pfn, pte_present
from repro.units import HUGE_PAGE_SIZE, MIB, PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER
#: L4 slot 1: a subtree of its own below the root.
FAR_VA = 0x8000000000


def grown_after_replication(kernel):
    """A process rooted on socket 1 that maps more memory after replicating
    onto {0, 1}: its new tables' primaries sit on socket 0, so the root's
    own entries reach them through their socket-1 replicas."""
    process = kernel.create_process("app", socket=1)
    kernel.sys_mmap(process, 4 * MIB, populate=True)
    kernel.mitosis.set_replication_mask(process, frozenset({0, 1}))
    kernel.sys_mmap(process, 4 * MIB, populate=True)
    return process


class TestIterTablesYieldsPrimaries:
    def test_verifier_sees_no_false_ring_violations(self, kernel2):
        process = grown_after_replication(kernel2)
        assert all(not page.is_replica for page in process.mm.tree.iter_tables())
        report = verify_kernel(kernel2)
        assert report.ok, report.render()

    def test_background_job_covers_every_ring(self, kernel4):
        tree = grown_after_replication(kernel4).mm.tree
        mask = frozenset({0, 1, 2})
        run_to_completion(start_background_replication(tree, kernel4.pagecache, mask))
        for primary in tree.iter_tables():
            assert {member.node for member in ring_members(tree, primary)} >= mask
        report = verify_tree(tree)
        assert report.ok, report.render()


def _tree(physmem, policy=None):
    cache = PageTablePageCache(physmem)
    return cache, PageTableTree(NativePagingOps(cache, pt_policy=policy or FirstTouchPolicy()))


def _map(physmem, tree, va, socket, count=1, huge=False):
    size = HUGE_PAGE_SIZE if huge else PAGE_SIZE
    for i in range(count):
        frame = (physmem.alloc_huge_frame if huge else physmem.alloc_frame)(socket)
        tree.map_page(va + i * size, frame.pfn, FLAGS, huge=huge, node_hint=socket)


# Tree shapes, each with the mask both replication paths then apply.


def fixed_node(physmem):
    cache, tree = _tree(physmem, FixedNodePolicy(0))
    _map(physmem, tree, 0, 0, count=600)  # two leaf tables
    return cache, tree, frozenset({0, 1, 2, 3})


def first_touch(physmem):
    cache, tree = _tree(physmem)
    for socket in range(4):
        _map(physmem, tree, socket * 2 * MIB, socket, count=3)
    _map(physmem, tree, FAR_VA, 3, count=2)
    return cache, tree, frozenset({0, 1, 2})


def extended(physmem):
    cache, tree = _tree(physmem, FixedNodePolicy(2))
    _map(physmem, tree, 0, 2, count=40)
    enable_replication(tree, cache, frozenset({1, 2}))
    _map(physmem, tree, FAR_VA, 2, count=5)  # born on {1, 2}, primary on 1
    return cache, tree, frozenset({0, 1, 2, 3})


def shrunk(physmem):
    cache, tree = _tree(physmem)
    _map(physmem, tree, 0, 0)
    _map(physmem, tree, 2 * MIB, 2)
    enable_replication(tree, cache, frozenset({0, 1, 2}))
    shrink_replication(tree, cache, frozenset({0}))
    return cache, tree, frozenset({0, 1, 2})


def narrowed(physmem):
    cache, tree = _tree(physmem, FixedNodePolicy(1))
    _map(physmem, tree, 0, 1, count=8)
    enable_replication(tree, cache, frozenset({0, 1, 3}))
    enable_replication(tree, cache, frozenset({0, 1}))
    _map(physmem, tree, FAR_VA, 1)
    return cache, tree, frozenset({0, 1})


def with_huge(physmem):
    cache, tree = _tree(physmem, FixedNodePolicy(1))
    _map(physmem, tree, 0, 1, huge=True)
    _map(physmem, tree, HUGE_PAGE_SIZE, 1, count=4)
    return cache, tree, frozenset({0, 3})


SHAPES = [fixed_node, first_touch, extended, shrunk, narrowed, with_huge]


def wiring(tree):
    """Ring coverage plus, for every entry of every copy, the socket its
    child pointer targets (leaf entries by value), keyed by node."""
    rows = []
    for primary in tree.iter_tables():
        ring = sorted(ring_members(tree, primary), key=lambda member: member.node)
        rows.append(("ring", primary.level, primary.node, [member.node for member in ring]))
        for member in ring:
            for index, entry in enumerate(member.entries):
                if not pte_present(entry):
                    continue
                if member.level > LEAF_LEVEL and not pte_huge(entry):
                    entry = ("->", tree.registry[pte_pfn(entry)].node)
                rows.append((member.node, index, entry))
    return rows


class TestEagerAndBackgroundAgree:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape.__name__)
    def test_same_rings_and_same_targets(self, machine4, shape):
        cache, eager_tree, mask = shape(PhysicalMemory(machine4))
        enable_replication(eager_tree, cache, mask)
        cache, job_tree, _ = shape(PhysicalMemory(machine4))
        run_to_completion(start_background_replication(job_tree, cache, mask))

        assert wiring(job_tree) == wiring(eager_tree)
        assert job_tree.ops.stats.tables_allocated == eager_tree.ops.stats.tables_allocated
        assert job_tree.ops.stats.pte_writes == eager_tree.ops.stats.pte_writes
        for tree in (eager_tree, job_tree):
            report = verify_tree(tree)
            assert report.ok, report.render()


class TestWiringRegressions:
    def test_background_rewires_rings_that_already_cover_the_mask(self, physmem4):
        cache, tree, mask = shrunk(physmem4)
        run_to_completion(start_background_replication(tree, cache, mask))
        report = verify_tree(tree)
        assert report.ok, report.render()

    def test_eager_enable_is_idempotent(self, physmem4):
        cache, tree, mask = narrowed(physmem4)
        writes = tree.ops.stats.pte_writes
        enable_replication(tree, cache, mask)  # the mask it already has
        assert tree.ops.stats.pte_writes == writes
        # Socket 3 has no copy of the new subtree: it walks the primary.
        child = next(m for m in ring_members(tree, tree.root) if m.node == 3).entries[1]
        assert not tree.registry[pte_pfn(child)].is_replica


class TestFrameSource:
    def test_new_table_returns_its_frames_when_a_copy_fails(self, physmem2):
        cache = PageTablePageCache(physmem2)
        tree = PageTableTree(MitosisPagingOps(cache, frozenset({0, 1})))
        registry = set(tree.registry)
        table_bytes = physmem2.page_table_bytes()
        cache.fault_plan = FaultPlan()
        cache.fault_plan.pagecache_oom(node=1)
        with pytest.raises(OutOfMemoryError):
            tree.ops.alloc_table(tree, 3, 0)
        assert set(tree.registry) == registry
        assert physmem2.page_table_bytes() == table_bytes

    def test_eager_enable_hands_out_reserved_frames_top_down_last_first(self, physmem2):
        cache, tree = _tree(physmem2, FixedNodePolicy(0))
        _map(physmem2, tree, 0, 0)
        _map(physmem2, tree, FAR_VA, 0)
        primaries = list(tree.iter_tables())
        enable_replication(tree, cache, frozenset({0, 1}))
        pfns = [next(m for m in ring_members(tree, p) if m.node == 1).pfn for p in primaries]
        assert pfns == sorted(pfns, reverse=True)

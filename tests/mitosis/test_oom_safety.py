"""Failure injection: replication under memory exhaustion.

Strict per-socket allocation can fail (§5.1). Enabling replication must be
all-or-nothing: a failure mid-way must leave the tree, the registry and
the frame accounting exactly as they were.
"""

import pytest

from repro.errors import OutOfMemoryError
from repro.kernel.policy import FixedNodePolicy
from repro.kernel.pvops import NativePagingOps
from repro.machine.topology import Machine, Socket
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.mitosis.replication import enable_replication
from repro.paging.pagetable import PageTableTree, PagingOps
from repro.paging.pte import PTE_USER, PTE_WRITABLE
from repro.units import MIB, PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER


def fail_entry_store(monkeypatch, number: int, message: str) -> None:
    """Make the ``number``-th physical entry store raise
    ``RuntimeError(message)``, counting every entry of a run store: a run
    holding it stores the entries before it, then raises."""
    real_write = PagingOps.apply_entry_write
    real_run = PagingOps.apply_entry_run
    stores = {"n": 0}

    def write(page, index, value):
        stores["n"] += 1
        if stores["n"] == number:
            raise RuntimeError(message)
        return real_write(page, index, value)

    def run(page, start, values):
        head = number - stores["n"] - 1  # entries stored before the failing one
        stores["n"] += len(values)
        if 0 <= head < len(values):
            real_run(page, start, values[:head])
            raise RuntimeError(message)
        real_run(page, start, values)

    monkeypatch.setattr(PagingOps, "apply_entry_write", staticmethod(write))
    monkeypatch.setattr(PagingOps, "apply_entry_run", staticmethod(run))


@pytest.fixture
def starved():
    """Socket 1 has almost no memory: replication onto it must fail."""
    machine = Machine(sockets=(Socket(0, 1, 32 * MIB), Socket(1, 1, 2 * PAGE_SIZE)))
    physmem = PhysicalMemory(machine)
    cache = PageTablePageCache(physmem)
    tree = PageTableTree(NativePagingOps(cache, pt_policy=FixedNodePolicy(0)))
    for i in range(32):  # needs 1 root + 1 L3 + 1 L2 + 1 L1 = 4+ replicas
        tree.map_page(i * PAGE_SIZE, physmem.alloc_frame(0).pfn, FLAGS)
    return physmem, cache, tree


class TestOomSafety:
    def test_failed_enable_raises_oom(self, starved):
        physmem, cache, tree = starved
        with pytest.raises(OutOfMemoryError):
            enable_replication(tree, cache, frozenset({0, 1}))

    def test_failed_enable_leaves_tree_untouched(self, starved):
        physmem, cache, tree = starved
        mappings_before = dict(tree.iter_mappings())
        tables_before = tree.total_table_count()
        registry_before = set(tree.registry)
        ops_before = tree.ops
        pt_bytes_before = physmem.page_table_bytes()
        used_before = physmem.stats(1).used_frames

        with pytest.raises(OutOfMemoryError):
            enable_replication(tree, cache, frozenset({0, 1}))

        assert dict(tree.iter_mappings()) == mappings_before
        assert tree.total_table_count() == tables_before
        assert set(tree.registry) == registry_before
        assert tree.ops is ops_before  # backend not swapped
        assert physmem.page_table_bytes() == pt_bytes_before
        assert physmem.stats(1).used_frames == used_before
        for page in tree.iter_tables():
            assert page.frame.replica_next is None  # no partial rings

    def test_tree_still_fully_functional_after_failure(self, starved):
        physmem, cache, tree = starved
        with pytest.raises(OutOfMemoryError):
            enable_replication(tree, cache, frozenset({0, 1}))
        pfn = physmem.alloc_frame(0).pfn
        tree.map_page(0x100000, pfn, FLAGS)
        assert tree.translate(0x100000).pfn == pfn
        tree.unmap_page(0x100000)

    def test_retry_succeeds_after_memory_freed(self, starved):
        physmem, cache, tree = starved
        with pytest.raises(OutOfMemoryError):
            enable_replication(tree, cache, frozenset({0, 1}))
        # Unmap most of the working set -> fewer tables -> replicas now fit
        # in socket 1's two frames? No: the chain still needs 4 pages. But
        # replicating onto socket 0 (same socket) needs nothing new at all.
        enable_replication(tree, cache, frozenset({0}))
        assert tree.translate(0) is not None

    def test_pagecache_reservation_rescues_replication(self):
        """With frames reserved ahead of time (the §5.1 page-cache), the
        same replication succeeds despite the node being otherwise full."""
        machine = Machine(sockets=(Socket(0, 1, 32 * MIB), Socket(1, 1, 16 * PAGE_SIZE)))
        physmem = PhysicalMemory(machine)
        cache = PageTablePageCache(physmem, reserve_per_node=8)
        tree = PageTableTree(NativePagingOps(cache, pt_policy=FixedNodePolicy(0)))
        for i in range(8):
            tree.map_page(i * PAGE_SIZE, physmem.alloc_frame(0).pfn, FLAGS)
        # Exhaust socket 1's remaining free frames.
        while True:
            try:
                physmem.alloc_frame(1)
            except OutOfMemoryError:
                break
        enable_replication(tree, cache, frozenset({0, 1}))
        from repro.mitosis.replication import replica_sockets

        assert replica_sockets(tree) == frozenset({0, 1})


@pytest.fixture
def healthy():
    """Both sockets have plenty of memory; failures come from monkeypatches."""
    machine = Machine(sockets=(Socket(0, 1, 32 * MIB), Socket(1, 1, 32 * MIB)))
    physmem = PhysicalMemory(machine)
    cache = PageTablePageCache(physmem)
    tree = PageTableTree(NativePagingOps(cache, pt_policy=FixedNodePolicy(0)))
    for i in range(32):
        tree.map_page(i * PAGE_SIZE, physmem.alloc_frame(0).pfn, FLAGS)
    return physmem, cache, tree


def snapshot(physmem, tree):
    return {
        "mappings": dict(tree.iter_mappings()),
        "tables": tree.total_table_count(),
        "registry": set(tree.registry),
        "rings": {pfn: page.frame.replica_next for pfn, page in tree.registry.items()},
        "ops": tree.ops,
        "pt_bytes": physmem.page_table_bytes(),
        "used": tuple(physmem.stats(n).used_frames for n in (0, 1)),
    }


def assert_restored(physmem, tree, before):
    assert dict(tree.iter_mappings()) == before["mappings"]
    assert tree.total_table_count() == before["tables"]
    assert set(tree.registry) == before["registry"]
    assert {
        pfn: page.frame.replica_next for pfn, page in tree.registry.items()
    } == before["rings"]
    assert tree.ops is before["ops"]
    assert physmem.page_table_bytes() == before["pt_bytes"]
    assert tuple(physmem.stats(n).used_frames for n in (0, 1)) == before["used"]


class TestMidWalkRollback:
    """Regression: a failure *after* the pass-0 reservation — while linking
    rings (pass 1) or filling entries (pass 2) — must also unwind fully."""

    def test_pass1_link_failure_rolls_back(self, healthy, monkeypatch):
        physmem, cache, tree = healthy
        before = snapshot(physmem, tree)
        import repro.mitosis.backend as backend

        real_link = backend.link_ring
        calls = {"n": 0}

        def flaky_link(pages):
            calls["n"] += 1
            if calls["n"] == 3:  # fail mid-walk, after two rings were built
                raise OutOfMemoryError(1, PAGE_SIZE, "injected mid-walk failure")
            real_link(pages)

        monkeypatch.setattr(backend, "link_ring", flaky_link)
        with pytest.raises(OutOfMemoryError):
            enable_replication(tree, cache, frozenset({0, 1}))
        assert_restored(physmem, tree, before)

    def test_pass2_write_failure_rolls_back(self, healthy, monkeypatch):
        physmem, cache, tree = healthy
        before = snapshot(physmem, tree)
        # Fail while filling the new copies, after four entries were stored.
        fail_entry_store(monkeypatch, 5, "injected pass-2 failure")
        with pytest.raises(RuntimeError):
            enable_replication(tree, cache, frozenset({0, 1}))
        assert_restored(physmem, tree, before)

    def test_tree_functional_and_consistent_after_rollback(self, healthy, monkeypatch):
        physmem, cache, tree = healthy
        import repro.mitosis.backend as backend

        real_link = backend.link_ring
        calls = {"n": 0}

        def flaky_link(pages):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OutOfMemoryError(1, PAGE_SIZE, "injected")
            real_link(pages)

        monkeypatch.setattr(backend, "link_ring", flaky_link)
        with pytest.raises(OutOfMemoryError):
            enable_replication(tree, cache, frozenset({0, 1}))
        monkeypatch.setattr(backend, "link_ring", real_link)

        from repro.inject import verify_tree

        assert verify_tree(tree).ok
        pfn = physmem.alloc_frame(0).pfn
        tree.map_page(0x200000, pfn, FLAGS)
        assert tree.translate(0x200000).pfn == pfn
        # And the full replication still succeeds now that the fault is gone.
        enable_replication(tree, cache, frozenset({0, 1}))
        assert verify_tree(tree).ok

    def test_extension_rollback_preserves_existing_replicas(self, monkeypatch):
        """Failing to extend {0,1} -> {0,1,2} must keep the {0,1} rings."""
        machine = Machine(
            sockets=tuple(Socket(i, 1, 32 * MIB) for i in range(3))
        )
        physmem = PhysicalMemory(machine)
        cache = PageTablePageCache(physmem)
        tree = PageTableTree(NativePagingOps(cache, pt_policy=FixedNodePolicy(0)))
        for i in range(32):
            tree.map_page(i * PAGE_SIZE, physmem.alloc_frame(0).pfn, FLAGS)
        enable_replication(tree, cache, frozenset({0, 1}))
        before = snapshot(physmem, tree)

        fail_entry_store(monkeypatch, 1, "injected extension failure")
        with pytest.raises(RuntimeError):
            enable_replication(tree, cache, frozenset({0, 1, 2}))
        monkeypatch.undo()

        assert dict(tree.iter_mappings()) == before["mappings"]
        assert set(tree.registry) == before["registry"]
        assert {
            pfn: page.frame.replica_next for pfn, page in tree.registry.items()
        } == before["rings"]
        from repro.inject import verify_tree
        from repro.mitosis.replication import replica_sockets

        assert replica_sockets(tree) == frozenset({0, 1})
        assert verify_tree(tree).ok

"""``PagingOps.set_pte_run`` against one ``set_pte`` per value.

A run write must be indistinguishable from the single writes it
replaces on every backend: the entries and valid counts of every
physical copy, the ``OpsStats`` counters, and the trace counters a live
session sees (``pvops.entry_writes``, ``mitosis.set_pte``,
``mitosis.set_pte_replica_writes``). The same holds one layer down for
the physical run store, ``PagingOps.apply_entry_run``, against one
``apply_entry_write`` per value.
"""

from __future__ import annotations

import pytest

from repro.kernel.pvops import NativePagingOps
from repro.machine.topology import Machine
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.lazy import LazyMitosisPagingOps
from repro.mitosis.naive import NaiveMitosisPagingOps
from repro.mitosis.ring import ring_members
from repro.paging.levels import HUGE_LEAF_LEVEL, LEAF_LEVEL
from repro.paging.pagetable import PageTableTree, PagingOps
from repro.paging.pte import PTE_PRESENT, PTE_USER, PTE_WRITABLE, TABLE_FLAGS, make_pte, pte_pfn
from repro.trace.session import tracing
from repro.units import MIB, PTES_PER_TABLE

LEAF = PTE_PRESENT | PTE_WRITABLE | PTE_USER
VA = 1 << 30
MASK = frozenset({0, 1, 2, 3})

BACKENDS = {
    "native": lambda cache: NativePagingOps(cache),
    "mitosis": lambda cache: MitosisPagingOps(cache, mask=MASK),
    "naive": lambda cache: NaiveMitosisPagingOps(cache, mask=MASK),
    "lazy": lambda cache: LazyMitosisPagingOps(cache, mask=MASK),
}

#: Slots 8..15 of a leaf table holding entries at 10 and 12: the run maps
#: fresh slots, clears 10, overwrites 12 and leaves 13 empty.
START = 8
VALUES = [
    make_pte(100, LEAF),
    make_pte(101, LEAF),
    0,
    make_pte(103, LEAF),
    make_pte(104, LEAF | PTE_USER),
    0,
    make_pte(106, LEAF),
    make_pte(107, LEAF),
]


def build(kind: str):
    physmem = PhysicalMemory(Machine.homogeneous(4, cores_per_socket=1, memory_per_socket=8 * MIB))
    tree = PageTableTree(BACKENDS[kind](PageTablePageCache(physmem)))
    leaf = tree.leaf_table(VA, LEAF_LEVEL, node_hint=0)
    tree.ops.set_pte(tree, leaf, 10, make_pte(77, LEAF))
    tree.ops.set_pte(tree, leaf, 12, make_pte(78, LEAF))
    return tree, leaf


def state(tree, page, session) -> dict:
    ops = tree.ops
    return {
        "copies": [
            (member.pfn, member.node, list(member.entries), member.valid_count)
            for member in ring_members(tree, page)
        ],
        "stats": ops.stats,
        "counters": dict(session.metrics.counters),
        "lazy": (
            (ops.lazy_stats, [list(queue) for queue in ops.queues.values()])
            if isinstance(ops, LazyMitosisPagingOps)
            else None
        ),
    }


def single_writes(tree, page, start, values) -> None:
    for offset, value in enumerate(values):
        tree.ops.set_pte(tree, page, start + offset, value)


def run_write(tree, page, start, values) -> None:
    tree.ops.set_pte_run(tree, page, start, values)


@pytest.mark.parametrize("kind", BACKENDS)
def test_leaf_run_equals_single_writes(kind):
    results = []
    for write in (single_writes, run_write):
        with tracing() as session:
            tree, leaf = build(kind)
            write(tree, leaf, START, VALUES)
            results.append(state(tree, leaf, session))
    assert results[0] == results[1]
    counters = results[1]["counters"]
    assert counters["pvops.entry_writes"] > 0
    if kind in ("mitosis", "naive"):
        assert counters["mitosis.set_pte"] >= len(VALUES)
        assert counters["mitosis.set_pte_replica_writes"] == 4 * counters["mitosis.set_pte"]


@pytest.mark.parametrize("kind", BACKENDS)
def test_empty_run_is_a_no_op(kind):
    results = []
    for values in ([], None):
        with tracing() as session:
            tree, leaf = build(kind)
            if values is not None:
                run_write(tree, leaf, START, values)
            results.append(state(tree, leaf, session))
    assert results[0] == results[1]


@pytest.mark.parametrize("kind", ["mitosis", "naive"])
def test_upper_level_run_rewires_each_replica_to_its_local_child(kind):
    """A run of table pointers at L2: every replica must point at the
    child copy on its own node, exactly as single writes do."""
    results = []
    for write in (single_writes, run_write):
        with tracing() as session:
            tree, _ = build(kind)
            upper = tree.leaf_table(VA, HUGE_LEAF_LEVEL, node_hint=0)
            children = [tree.ops.alloc_table(tree, LEAF_LEVEL, 0) for _ in range(3)]
            write(tree, upper, 100, [make_pte(child.pfn, TABLE_FLAGS) for child in children])
            results.append(state(tree, upper, session))
            for member in ring_members(tree, upper):
                for offset in range(3):
                    child = tree.registry[pte_pfn(member.entries[100 + offset])]
                    assert child.node == member.node
    assert results[0] == results[1]


# -- the physical run store --------------------------------------------------------


def _table_with_entries():
    physmem = PhysicalMemory(Machine.homogeneous(1, cores_per_socket=1, memory_per_socket=8 * MIB))
    tree = PageTableTree(NativePagingOps(PageTablePageCache(physmem)))
    leaf = tree.leaf_table(VA, LEAF_LEVEL, node_hint=0)
    PagingOps.apply_entry_write(leaf, 10, make_pte(77, LEAF))
    PagingOps.apply_entry_write(leaf, 12, make_pte(78, LEAF))
    PagingOps.apply_entry_write(leaf, 13, make_pte(79, LEAF) & ~PTE_PRESENT)
    return leaf


@pytest.mark.parametrize(
    "start, values",
    [
        (START, VALUES),  # fresh, cleared, overwritten and non-present slots
        (0, [make_pte(200 + i, LEAF) for i in range(PTES_PER_TABLE)]),  # the whole table
        (PTES_PER_TABLE - 1, [make_pte(300, LEAF)]),  # the last slot alone
        (12, [0, 0]),  # clears a present and a non-present entry
        (START, []),
    ],
)
def test_apply_entry_run_equals_single_entry_writes(start, values):
    """Entries, valid-entry count and the ``pvops.entry_writes`` counter
    match one ``apply_entry_write`` per value."""
    results = []
    for store in ("single", "run"):
        with tracing() as session:
            leaf = _table_with_entries()
            before = dict(session.metrics.counters)
            if store == "single":
                for offset, value in enumerate(values):
                    PagingOps.apply_entry_write(leaf, start + offset, value)
            else:
                PagingOps.apply_entry_run(leaf, start, values)
            after = dict(session.metrics.counters)
        results.append((list(leaf.entries), leaf.valid_count, before, after))
        assert leaf.valid_count == sum(1 for entry in leaf.entries if entry & PTE_PRESENT)
    assert results[0] == results[1]


def test_apply_entry_run_out_of_the_table_writes_nothing():
    leaf = _table_with_entries()
    entries, valid = list(leaf.entries), leaf.valid_count
    for start in (PTES_PER_TABLE - 1, -1):
        with pytest.raises(IndexError):
            PagingOps.apply_entry_run(leaf, start, [make_pte(1, LEAF), make_pte(2, LEAF)])
    assert list(leaf.entries) == entries and len(leaf.entries) == PTES_PER_TABLE
    assert leaf.valid_count == valid

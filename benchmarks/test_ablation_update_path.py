"""Ablation: the Fig. 8 replica ring vs walk-per-replica updates (§5.2).

The paper's design argument: eager propagation without the ring costs ~4N
memory references per update on an N-socket machine (a full walk of every
replica); the circular linked list through ``struct page`` cuts this to 2N
(N pointer reads + N writes). We run the same mprotect-style update stream
through both backends and compare accounted memory references.
"""

from common import emit

from repro.analysis.report import render_table
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.machine.topology import Machine
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.naive import (
    NaiveMitosisPagingOps,
    naive_update_cost_refs,
    ring_update_cost_refs,
)
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_USER, PTE_WRITABLE
from repro.units import MIB, PAGE_SIZE

UPDATES = 2048


def refs_per_update(ops_class, n_sockets: int) -> float:
    machine = Machine.homogeneous(n_sockets, cores_per_socket=1, memory_per_socket=64 * MIB)
    physmem = PhysicalMemory(machine)
    mask = frozenset(range(n_sockets))
    tree = PageTableTree(ops_class(PageTablePageCache(physmem), mask))
    for i in range(UPDATES):
        tree.map_page(i * PAGE_SIZE, physmem.alloc_frame(0).pfn, PTE_WRITABLE | PTE_USER)
    before = tree.ops.stats.snapshot()
    for i in range(UPDATES):
        tree.protect_range(i * PAGE_SIZE, (i + 1) * PAGE_SIZE, PTE_USER)
    delta = tree.ops.stats.delta(before)
    # protect = one local read + one PTE write. The read is identical on both
    # backends; subtract it so the number reflects pure update
    # *propagation*, matching the paper's 2N-vs-4N accounting in §5.2.
    refs = delta.pte_writes + delta.ring_hops + delta.pte_reads - UPDATES
    return refs / UPDATES


def test_ablation_ring_vs_naive_updates(benchmark):
    def run():
        table = {}
        for n in (2, 4, 8):
            ring = refs_per_update(MitosisPagingOps, n)
            naive = refs_per_update(NaiveMitosisPagingOps, n)
            table[n] = (ring, naive)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            f"{n}-way",
            f"{ring:.1f}",
            f"{naive:.1f}",
            f"{naive / ring:.2f}x",
            f"(model: {ring_update_cost_refs(n)} vs {naive_update_cost_refs(n)})",
        ]
        for n, (ring, naive) in table.items()
    ]
    emit(
        "ablation_update_path",
        "Ablation (§5.2): memory references per replicated PTE update\n\n"
        + render_table(["replication", "ring (Fig. 8)", "naive walk", "ratio", ""], rows),
    )
    for n, (ring, naive) in table.items():
        # Ring: exactly 2N refs per update (N hops + N writes).
        assert abs(ring - ring_update_cost_refs(n)) < 0.5
        # Naive: ~4N (a full walk per replica) — 2x the ring cost.
        assert abs(naive - naive_update_cost_refs(n)) < 0.5
        assert naive / ring > 1.7
        benchmark.extra_info[f"{n}way_ratio"] = round(naive / ring, 3)

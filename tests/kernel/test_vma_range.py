"""Range munmap/mprotect against the per-page loops they replaced.

``sys_munmap`` and ``sys_mprotect`` go one leaf table at a time: one
``mm.lock()``, one descent, one PV-Ops run write per run of mapped slots
and, for munmap, one collection of the emptied tables. Their contract is
that nothing observable changes against the old loop, which took the
lock, descended from the root and wrote one PTE per page: the tables of
every copy, the frames and the order they are freed in (seen through the
next allocations and the page-cache pools), swap slots, ``OpsStats``,
cycles, trace counters and events, lazy-propagation queues. The old loops
are kept here as the oracle, and every case runs both on identical
kernels. A rejected call must leave the state it found.
"""

from __future__ import annotations

import copy
import types

import pytest

from repro.errors import InvalidMappingError, OutOfMemoryError
from repro.kernel.costs import WorkCounters, syscall_cycles
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import SyscallResult
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.kernel.vma import PROT_DEFAULT
from repro.lint.sanitizer import PTESanitizer
from repro.machine.topology import Machine
from repro.mem.allocator import HUGE_ORDER
from repro.mitosis.lazy import LazyMitosisPagingOps, make_lazy
from repro.mitosis.naive import NaiveMitosisPagingOps
from repro.paging.pagetable import PagingOps
from repro.paging.pte import PTE_HUGE, PTE_PRESENT, PTE_USER, make_pte, pte_pfn
from repro.trace.session import tracing
from repro.units import HUGE_PAGE_SIZE, MIB, PAGE_SIZE, page_align_up

W = HUGE_PAGE_SIZE // PAGE_SIZE
#: 512 GiB-aligned: the arena is alone under its root entry, so emptying
#: it collects every table down from L3.
ARENA = 1 << 39
BACKENDS = ["native", "mitosis", "naive", "lazy"]


# -- the oracle: the per-page loops the range methods replaced ---------------


def oracle_munmap(kernel, process, va, length) -> SyscallResult:
    mm = process.mm
    length = page_align_up(length)
    end = va + length
    removed = mm.vmas.remove_range(va, end)
    if not removed:
        raise InvalidMappingError(f"munmap of unmapped range 0x{va:x}+{length:#x}")
    before = mm.tree.ops.stats.snapshot()
    work = WorkCounters()
    for base in _mapped_bases_in_range(mm, va, end):
        mapped = mm.frames.pop(base)
        if mapped.order == HUGE_ORDER and (base < va or base + HUGE_PAGE_SIZE > end):
            raise InvalidMappingError(f"munmap range partially covers the 2 MiB page at 0x{base:x}")
        with mm.lock():
            mm.tree.unmap_page(base)
        kernel.physmem.free(mapped)
        work.pages_freed += 512 if mapped.order == HUGE_ORDER else 1
    for base in [b for b in mm.swapped if va <= b < end]:
        entry = mm.swapped.pop(base)
        kernel.swap.device.free_slot(entry.slot)
    shoot = kernel.shootdown.flush_all(kernel.cpu_contexts)
    delta = mm.tree.ops.stats.delta(before)
    return SyscallResult(value=0, cycles=syscall_cycles(delta, work, shoot))


def oracle_mprotect(kernel, process, va, length, prot) -> SyscallResult:
    mm = process.mm
    length = page_align_up(length)
    end = va + length
    if not mm.vmas.in_range(va, end):
        raise InvalidMappingError(f"mprotect of unmapped range 0x{va:x}+{length:#x}")
    mm.vmas.protect_range(va, end, prot)
    before = mm.tree.ops.stats.snapshot()
    for base in _mapped_bases_in_range(mm, va, end):
        mapped = mm.frames[base]
        if mapped.order == HUGE_ORDER and (base < va or base + HUGE_PAGE_SIZE > end):
            raise InvalidMappingError(f"mprotect range partially covers the 2 MiB page at 0x{base:x}")
        with mm.lock():
            _protect_page(mm.tree, base, prot)
    shoot = kernel.shootdown.flush_all(kernel.cpu_contexts)
    delta = mm.tree.ops.stats.delta(before)
    return SyscallResult(value=0, cycles=syscall_cycles(delta, WorkCounters(), shoot))


def _protect_page(tree, va, flags) -> None:
    location = tree.leaf_location(va)
    if location is None:
        raise InvalidMappingError(f"va 0x{va:x} is not mapped")
    entry = tree.ops.read_pte_local(location.page, location.index)
    keep = PTE_PRESENT | (entry & PTE_HUGE)
    tree.ops.set_pte(tree, location.page, location.index, make_pte(pte_pfn(entry), flags | keep))


def _mapped_bases_in_range(mm, start, end) -> list[int]:
    return sorted(
        base
        for base, mapped in mm.frames.items()
        if base < end and base + mapped.nbytes > start
    )


def install_oracle(kernel) -> None:
    """Route the kernel's munmap/mprotect (``destroy_process`` too)
    through the per-page loops."""
    kernel.sys_munmap = types.MethodType(oracle_munmap, kernel)
    kernel.sys_mprotect = types.MethodType(oracle_mprotect, kernel)


# -- scenarios ---------------------------------------------------------------


def build(backend: str, thp: bool, reserve: int = 2):
    """A 4-socket kernel and a process on socket 0 with a 4-window arena.

    Window 0 holds sparse runs of 4 KiB pages faulted from every socket;
    window 1 is one 2 MiB page under THP, else fully populated; window 2
    has its first 300 pages, three of them swapped out; window 3 is a
    2 MiB page under THP, else its first half. A small mapping at 1 GiB
    keeps the root busy. ``reserve`` frames per node sit in the
    page-table page cache, so released tables go partly to the pools and
    partly back to the allocator.
    """
    machine = Machine.homogeneous(4, cores_per_socket=1, memory_per_socket=32 * MIB)
    sysctl = Sysctl(
        thp_enabled=thp, mitosis_mode=MitosisMode.PER_PROCESS, pt_pagecache_frames=reserve
    )
    kernel = Kernel(machine, sysctl=sysctl)
    process = kernel.create_process("p", socket=0)
    if backend != "native":
        kernel.mitosis.replicate_on_all_sockets(process)
        tree = process.mm.tree
        if backend == "naive":
            naive = NaiveMitosisPagingOps(kernel.pagecache, tree.ops.mask)
            naive.stats = tree.ops.stats
            tree.ops = naive
        elif backend == "lazy":
            # The process runs on socket 0, so the home replica is the
            # primary that software walks read.
            make_lazy(tree, kernel.pagecache)
    kernel.sys_mmap(process, 4 * PAGE_SIZE, fixed_va=1 << 30, populate=True, name="anchor")
    va = kernel.sys_mmap(process, 4 * HUGE_PAGE_SIZE, fixed_va=ARENA, name="arena").value
    handler = kernel.fault_handler
    for page, socket in [(0, 0), (1, 1), (2, 2), (7, 3), (8, 0), (9, 1), (100, 2), (510, 3), (511, 0)]:
        handler.handle(process, va + page * PAGE_SIZE, socket, is_write=True, allow_huge=False)
    handler.populate(process, va + W * PAGE_SIZE, va + 2 * W * PAGE_SIZE, 1, allow_huge=thp)
    handler.populate(process, va + 2 * W * PAGE_SIZE, va + (2 * W + 300) * PAGE_SIZE, 2, allow_huge=False)
    for page in (2 * W + 5, 2 * W + 6, 2 * W + 200):
        kernel.swap.swap_out(process, va + page * PAGE_SIZE)
    third = 4 * W if thp else 3 * W + W // 2
    handler.populate(process, va + 3 * W * PAGE_SIZE, va + third * PAGE_SIZE, 3, allow_huge=thp)
    return kernel, process


#: Operations on the arena, in pages from its base.
SEQUENCES = {
    # Everything at once: runs, 2 MiB pages, swapped pages, and table
    # collection up to L3; then fresh allocations reuse what it freed.
    "whole": [("munmap", 0, 4 * W), ("mmap", W, 2 * W)],
    # Ranges that start and end mid-window and cross windows.
    "across": [
        ("mprotect", 50, 2 * W + 100, PTE_USER),
        ("munmap", 5, 9),
        ("munmap", 2 * W + 150, 4 * W),
    ],
    # Several runs per table; the partly covered table survives.
    "sparse": [
        ("mprotect", 0, W, PTE_USER),
        ("mprotect", 0, 4 * W, PROT_DEFAULT),
        ("munmap", 1, W - 1),
        ("munmap", W - 1, W),
    ],
    # Unmap, map again and protect the new pages, then tear down.
    "repopulate": [
        ("munmap", W, 3 * W),
        ("mmap", W, 2 * W),
        ("mprotect", W, 2 * W, PTE_USER),
        ("munmap", 0, 4 * W),
    ],
}


def apply(kernel, process, op) -> SyscallResult:
    name, first, end, *prot = op
    va, length = ARENA + first * PAGE_SIZE, (end - first) * PAGE_SIZE
    if name == "mmap":
        return kernel.sys_mmap(process, length, fixed_va=va, populate=True)
    if name == "mprotect":
        return kernel.sys_mprotect(process, va, length, *prot)
    return kernel.sys_munmap(process, va, length)


def state(kernel, process) -> dict:
    """Everything the syscalls may change, without changing it."""
    mm = process.mm
    ops = mm.tree.ops
    machine = kernel.machine
    return {
        "vmas": list(mm.vmas),
        "frames": [(va, m.pfn, m.node, m.order == HUGE_ORDER) for va, m in mm.frames.items()],
        "swapped": dict(mm.swapped),
        "swap_device": copy.deepcopy(kernel.swap.device),
        "tables": [
            (
                page.pfn,
                page.node,
                page.level,
                list(page.entries),
                page.valid_count,
                None if page.primary is None else page.primary.pfn,
                page.frame.replica_next,
            )
            for page in sorted(mm.tree.registry.values(), key=lambda p: p.pfn)
        ],
        "ops": ops.stats.snapshot(),
        "lazy": (
            (copy.copy(ops.lazy_stats), [list(queue) for queue in ops.queues.values()])
            if isinstance(ops, LazyMitosisPagingOps)
            else None
        ),
        "shootdown": copy.copy(kernel.shootdown.stats),
        "memory": [kernel.physmem.stats(node) for node in machine.node_ids()],
        "pooled": [kernel.pagecache.pooled(node) for node in machine.node_ids()],
    }


def next_allocations(kernel) -> list:
    """Drain the page-table pools, then allocate a few frames per node:
    the PFNs handed out show the order earlier frees happened in."""
    pfns = []
    for node in kernel.machine.node_ids():
        pfns.append([kernel.pagecache.alloc(node).pfn for _ in range(kernel.pagecache.pooled(node) + 2)])
        pfns.append([kernel.physmem.alloc_frame(node).pfn for _ in range(3)])
        try:
            pfns.append(kernel.physmem.alloc_huge_frame(node).pfn)
        except OutOfMemoryError:
            pfns.append(None)
    return pfns


def run(backend, thp, ops, oracle=False) -> dict:
    with tracing() as session:
        kernel, process = build(backend, thp)
        if oracle:
            install_oracle(kernel)
        results = [apply(kernel, process, op) for op in ops]
    return {
        "results": results,
        "state": state(kernel, process),
        "counters": dict(session.metrics.counters),
        "events": [(e.name, e.kind, e.ts, e.args) for e in session.events],
        "next": next_allocations(kernel),
    }


@pytest.mark.parametrize("sequence", SEQUENCES)
@pytest.mark.parametrize("thp", [False, True], ids=["4k", "thp"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_per_page_loop(backend, thp, sequence):
    ops = SEQUENCES[sequence]
    expected = run(backend, thp, ops, oracle=True)
    assert run(backend, thp, ops) == expected
    assert expected["counters"]["pvops.entry_writes"] > 0
    if backend in ("mitosis", "naive"):
        assert expected["counters"]["mitosis.set_pte"] > 0


def test_cases_exercise_what_they_claim():
    """The scenarios really contain 2 MiB pages (under THP) and swapped
    pages, and the whole-arena munmap collects the arena's L3 table."""
    for thp in (False, True):
        kernel, process = build("native", thp)
        mm = process.mm
        huge = [va for va, mapped in mm.frames.items() if mapped.order == HUGE_ORDER]
        assert huge == ([ARENA + W * PAGE_SIZE, ARENA + 3 * W * PAGE_SIZE] if thp else [])
        assert len(mm.swapped) == 3
        root = mm.tree.root
        assert root.entries[1]  # the arena's L4 slot
        kernel.sys_munmap(process, ARENA, 4 * HUGE_PAGE_SIZE)
        assert root.entries[1] == 0
        assert not mm.swapped and kernel.swap.device.used_slots == 0


def test_under_pte_sanitizer():
    ops = SEQUENCES["across"]
    expected = run("mitosis", True, ops, oracle=True)
    with PTESanitizer() as sanitizer:
        got = run("mitosis", True, ops)
    assert got == expected
    assert sanitizer.writes_checked > 0
    assert sanitizer.violations == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_pte_write_holds_mm_lock(backend, monkeypatch):
    kernel, process = build(backend, thp=True)
    held = []
    store = PagingOps.apply_entry_write
    store_run = PagingOps.apply_entry_run

    def checked(page, index, value):
        held.append(process.mm.lock.held)
        return store(page, index, value)

    def checked_run(page, start, values):
        held.append(process.mm.lock.held)
        store_run(page, start, values)

    monkeypatch.setattr(PagingOps, "apply_entry_write", staticmethod(checked))
    monkeypatch.setattr(PagingOps, "apply_entry_run", staticmethod(checked_run))
    for op in SEQUENCES["across"] + [("munmap", 0, 4 * W)]:
        apply(kernel, process, op)
    assert held and all(held)


class TestOneLockAndOneDescentPerTable:
    @pytest.mark.parametrize("op", [("mprotect", 0, 4 * W, PTE_USER), ("munmap", 0, 4 * W)])
    def test_per_window(self, op, monkeypatch):
        kernel, process = build("mitosis", thp=False)
        tree = process.mm.tree
        descents = []
        walk = tree.walk_path
        monkeypatch.setattr(tree, "walk_path", lambda va: descents.append(va) or walk(va))
        before = process.mm.lock.acquisitions
        apply(kernel, process, op)
        windows = [ARENA + k * HUGE_PAGE_SIZE for k in range(4)]
        assert descents == windows
        assert process.mm.lock.acquisitions - before == 4

    @pytest.mark.parametrize("op", [("mprotect", 0, W, PTE_USER), ("munmap", 0, W)])
    def test_one_run_write_per_run_of_mapped_slots(self, op, monkeypatch):
        kernel, process = build("mitosis", thp=False)
        ops = process.mm.tree.ops
        runs = []
        run_write = ops.set_pte_run

        def record(tree, page, start_index, values):
            runs.append((page.level, start_index, len(values)))
            run_write(tree, page, start_index, values)

        monkeypatch.setattr(ops, "set_pte_run", record)
        apply(kernel, process, op)
        leaf_runs = [(1, 0, 3), (1, 7, 3), (1, 100, 1), (1, 510, 2)]
        # munmap empties the table: the collection clears its L2 pointer
        # (a Mitosis set_pte is a one-entry run).
        assert runs == leaf_runs + ([(2, 0, 1)] if op[0] == "munmap" else [])

    def test_a_missing_subtree_is_one_step(self):
        kernel, process = build("native", thp=False)
        va = kernel.sys_mmap(process, 1 << 31, fixed_va=1 << 40).value
        kernel.fault_handler.handle(process, va + (1 << 30), 0, is_write=True)
        before = process.mm.lock.acquisitions
        kernel.sys_mprotect(process, va, 1 << 31, PTE_USER)
        # The empty first GiB (no L3 entry), then the second GiB's
        # leaf table, then the rest of that GiB (no L2 entry).
        assert process.mm.lock.acquisitions - before == 3


class TestRejectedCallsChangeNothing:
    """A range that covers part of a 2 MiB page (or is empty or
    unaligned) raises before touching VMAs, frames or PTEs."""

    CASES = [
        ("munmap", ARENA + W * PAGE_SIZE, PAGE_SIZE),
        ("munmap", ARENA + 100 * PAGE_SIZE, HUGE_PAGE_SIZE),
        ("munmap", ARENA + 1, PAGE_SIZE),
        ("munmap", ARENA, 0),
        ("mprotect", ARENA + (W + 1) * PAGE_SIZE, PAGE_SIZE),
        ("mprotect", ARENA + (3 * W - 10) * PAGE_SIZE, 20 * PAGE_SIZE),
        ("mprotect", ARENA + 1, PAGE_SIZE),
    ]

    @pytest.mark.parametrize("backend", ["native", "mitosis"])
    @pytest.mark.parametrize("call", CASES, ids=lambda c: f"{c[0]}-{c[1] - ARENA:#x}+{c[2]:#x}")
    def test_state_unchanged_and_teardown_frees_everything(self, backend, call):
        kernel, process = build(backend, thp=True, reserve=0)
        name, va, length = call
        before = state(kernel, process)
        with pytest.raises(InvalidMappingError):
            if name == "munmap":
                kernel.sys_munmap(process, va, length)
            else:
                kernel.sys_mprotect(process, va, length, PTE_USER)
        assert state(kernel, process) == before
        assert process.mm.tree.translate(ARENA + W * PAGE_SIZE) is not None
        kernel.destroy_process(process)
        for node in kernel.machine.node_ids():
            assert kernel.physmem.stats(node).used_frames == 0

"""Unit tests for the batched escape tier's building blocks.

The end-to-end guarantees (bit-identical metrics, identical trace record
streams) live in test_engine_equivalence.py; these tests pin the inlined
TLB probe of :meth:`EscapeRunner.run` against :meth:`TlbHierarchy.lookup`
and its inlined walk path, traced and untraced, against ``walk_one``.
:class:`TestFinalHardwareState` extends the probe's check to whole runs:
the TLB state both tiers leave behind once batched hit runs are mixed in,
and :class:`TestFaultPathException` the state and trace events both leave
when the fault path raises mid-span. :class:`TestDeferredReplay` pins
where the vector tier replays a batched range's LRU promotions: before
the escape that follows it, and at slice end.
"""

import itertools
import random
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest

from repro.cache.llc import SocketLlc
from repro.errors import SegmentationFault
from repro.kernel.kernel import Kernel
from repro.kernel.sysctl import Sysctl
from repro.machine.topology import Machine
from repro.mem.allocator import HUGE_ORDER
from repro.paging.walker import HardwareWalker
from repro.sim.bench import _build_gups, metrics_equal
from repro.sim import engine as engine_module
from repro.sim.engine import (
    _CHUNK_MAX,
    _CHUNK_MIN,
    EngineConfig,
    Simulator,
    _ResidencyLut,
    _ThreadExecution,
)
from repro.sim.escape import EscapeRunner
from repro.sim.metrics import RunMetrics, ThreadMetrics
from repro.tlb.mmu_cache import MmuCacheConfig, MmuCaches
from repro.tlb.tlb import TlbConfig, TlbHierarchy
from repro.trace.session import TraceSession, tracing
from repro.units import GIB, HUGE_PAGE_SIZE, KIB, MIB, PAGE_SHIFT, PAGE_SIZE
from repro.workloads.base import Workload, WorkloadProfile


#: Small enough that a few thousand accesses fill, hit, evict and re-fill
#: every structure of the hierarchy at both page sizes.
TINY_TLB = TlbConfig(
    l1_entries=8, l1_ways=2, l1_huge_entries=4, l1_huge_ways=2,
    l2_entries=32, l2_ways=4, l2_huge_entries=8, l2_huge_ways=2,
)
HUGE_PAGES = 12
SMALL_PAGES = 96
STRUCTURES = ("l1_4k", "l1_2m", "l2_4k", "l2_2m")


def _mixed_process():
    """A process mapping both 2 MiB (THP) and 4 KiB pages, populated."""
    kernel = Kernel(
        Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=64 * MIB),
        sysctl=Sysctl(thp_enabled=True),
    )
    process = kernel.create_process("probe", socket=0)
    huge_base = kernel.sys_mmap(
        process, HUGE_PAGES * HUGE_PAGE_SIZE, populate=True
    ).value
    small_base = kernel.sys_mmap(
        process, SMALL_PAGES * PAGE_SIZE, populate=True, use_huge=False
    ).value
    return kernel, process, huge_base, small_base


def _stream(seed, huge_base, small_base, n=3000):
    """Random 4 KiB / 2 MiB accesses with enough reuse to hit every level."""
    rng = random.Random(seed)
    vas = []
    for _ in range(n):
        if vas and rng.random() < 0.4:
            vas.append(rng.choice(vas[-6:]))
        elif rng.random() < 0.5:
            page = rng.randrange(HUGE_PAGES)
            vas.append(huge_base + page * HUGE_PAGE_SIZE + rng.randrange(HUGE_PAGE_SIZE))
        else:
            vas.append(small_base + rng.randrange(SMALL_PAGES * PAGE_SIZE))
    return vas


class TestInlinedProbe:
    """EscapeRunner.run inlines TlbHierarchy.lookup; this pins the copy
    to the method, as TestWalkInto pins walk_into to walk: identical
    counters, identical LRU order in every set, and one bail-out per L1
    hit the span handled."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("spans", [1, 7])
    @pytest.mark.parametrize("traced", [False, True])
    def test_matches_lookup_and_insert(self, seed, spans, traced):
        kernel, process, huge_base, small_base = _mixed_process()
        vas = _stream(seed, huge_base, small_base)
        n = len(vas)
        walker = HardwareWalker(process.mm.tree)

        tlb = TlbHierarchy(TINY_TLB)
        sim = Simulator(kernel, EngineConfig(tlb=TINY_TLB))
        llcs = {node: SocketLlc(16 * KIB) for node in kernel.machine.node_ids()}
        reads = [False] * n
        with tracing(TraceSession(sinks=())) if traced else nullcontext():
            ex = _ThreadExecution(
                sim, process, walker, (tlb, MmuCaches()), llcs, 0, 1.0,
                ThreadMetrics(thread=0, socket=0),
            )
            runner = EscapeRunner(ex)
            bounds = [n * k // spans for k in range(spans + 1)]
            for lo, hi in zip(bounds, bounds[1:]):
                runner.run(vas, reads, reads, reads, lo, hi, 0)

        reference = TlbHierarchy(TINY_TLB)
        for va in vas:
            if reference.lookup(va) is None:
                reference.insert(va, walker.walk(va, socket=0).translation)

        for name in STRUCTURES:
            got, want = getattr(tlb, name), getattr(reference, name)
            assert got.stats == want.stats, name
            assert list(got.resident_items()) == list(want.resident_items()), name
        assert tlb.totals == reference.totals
        assert ex.walks == reference.totals.walks
        assert ex.escape_bailout == reference.totals.l1.hits
        # The stream must exercise what it pins: hits, misses and
        # capacity evictions in all four structures.
        for name in STRUCTURES:
            stats = getattr(reference, name).stats
            assert stats.hits and stats.misses and stats.evictions, (name, stats)


#: Small paging-structure caches and LLC, so that a few thousand walks
#: evict from the level-2 and level-3 PSCs and from the LLC.
SMALL_MMU = MmuCacheConfig(entries_per_level={1: 2, 2: 2, 3: 2})
SMALL_LLC = 16 * 64
#: One 512 GiB region: a level-3 table's span.
FAR = 1 << 39


def _walk_process():
    """A THP kernel whose regions sit in five 1 GiB regions of three
    512 GiB ones: populated 2 MiB and 4 KiB pages, and unpopulated ones
    of both sizes for demand faults (2 MiB ones map through THP)."""
    kernel = Kernel(
        Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=64 * MIB),
        sysctl=Sysctl(thp_enabled=True),
    )
    process = kernel.create_process("walks", socket=0)
    regions = {}
    for name, va, size, populate, huge in (
        ("huge", GIB, HUGE_PAGES * HUGE_PAGE_SIZE, True, True),
        ("small", 2 * GIB, 48 * PAGE_SIZE, True, False),
        ("fault_small", 2 * FAR + GIB, 32 * PAGE_SIZE, False, False),
        ("far_small", FAR + GIB, 48 * PAGE_SIZE, True, False),
        ("fault_huge", FAR + 2 * GIB, 2 * HUGE_PAGE_SIZE, False, True),
    ):
        kernel.sys_mmap(process, size, populate=populate, fixed_va=va, use_huge=huge)
        regions[name] = (va, size)
    return kernel, process, regions


def _walk_stream(seed, regions, n=3000, small_only=300):
    """``(vas, writes, hit_rolls, pollution_rolls)``: ``small_only``
    accesses to 4 KiB pages, then the first touch of an unpopulated
    2 MiB page (a THP fault), then every region mixed. Recent pages
    recur, so the L1 and L2 TLBs, the PSCs and the LLC all hit too."""
    rng = random.Random(seed)

    def pick(names):
        va, size = regions[rng.choice(names)]
        return va + rng.randrange(size)

    vas = []
    for k in range(n):
        if k == small_only:
            vas.append(regions["fault_huge"][0] + rng.randrange(HUGE_PAGE_SIZE))
        elif vas and rng.random() < 0.4:
            vas.append(rng.choice(vas[-8:]))
        elif k < small_only:
            vas.append(pick(["small", "far_small", "fault_small"]))
        else:
            vas.append(pick(list(regions)))
    rolls = [[rng.random() < 0.3 for _ in range(n)] for _ in range(3)]
    return vas, *rolls


def _walk_path_state(ex, llc) -> dict:
    """Everything the miss path touches: the four TLB structures, every
    PSC level's entries in LRU order and the PSC stats, the socket LLC's
    lines in LRU order and its stats, the slice's accumulators, and the
    page tables (hardware A/D bits included)."""
    tlb, mmu = ex.tlb, ex.mmu
    registry = ex.process.mm.tree.registry
    return {
        "tlb": [
            (name, getattr(tlb, name).stats, list(getattr(tlb, name).resident_items()))
            for name in STRUCTURES
        ],
        "totals": tlb.totals,
        "psc": _psc_entries(mmu),
        "psc_stats": mmu.stats,
        "llc": list(llc._lines),
        "llc_stats": llc.stats,
        "accumulators": (
            ex.data_cycles, ex.walk_cycles, ex.walks, ex.walk_refs,
            ex.walk_llc_hits, ex.faults, ex.fault_cycles,
        ),
        "frames": [(va, m.pfn, m.order == HUGE_ORDER) for va, m in ex.process.mm.frames.items()],
        "tables": [(pfn, list(registry[pfn].entries)) for pfn in sorted(registry)],
    }


def _psc_entries(mmu) -> list:
    """Each PSC level's ``(tag, table pfn)`` entries, in LRU order."""
    return [
        (level, [(tag, page.pfn) for tag, page in cache.items()])
        for level, cache in mmu._caches.items()
    ]


class TestInlinedWalkPath:
    """Below the TLB probe, EscapeRunner.run inlines the PSC probe and
    fill (MmuCaches.lookup/insert), one LLC probe per fetched level
    (SocketLlc.access) and the TLB fills (TlbHierarchy.insert and the L1
    fill of an L2 hit). Spans through the runner and the same stream
    through run_span (lookup + walk_one) on an identical kernel must
    leave every structure in the same state: entries, LRU order, stats,
    accumulators and page tables. The first span starts with both 2 MiB
    TLB structures empty and maps a THP page through a fault mid-span,
    so the skipped 2 MiB probes and the misses counted for them are
    pinned too."""

    def _contexts(self, kernel, process):
        sim = Simulator(kernel, EngineConfig(tlb=TINY_TLB, mmu=SMALL_MMU, pt_llc_bytes=SMALL_LLC))
        llcs = {node: SocketLlc(SMALL_LLC) for node in kernel.machine.node_ids()}
        ex = _ThreadExecution(
            sim, process, HardwareWalker(process.mm.tree),
            (TlbHierarchy(TINY_TLB), MmuCaches(SMALL_MMU)), llcs, 0, 2.0,
            ThreadMetrics(thread=0, socket=0),
        )
        return ex, llcs[0]

    @pytest.mark.parametrize("seed", [2, 9])
    @pytest.mark.parametrize("spans", [1, 7])
    @pytest.mark.parametrize("traced", [False, True])
    def test_matches_walk_one(self, seed, spans, traced):
        sessions, states = {}, {}
        evicted_at = Counter()
        for tier in ("reference", "runner"):
            kernel, process, regions = _walk_process()
            stream = _walk_stream(seed, regions)
            n = len(stream[0])
            session = sessions[tier] = TraceSession(sinks=()) if traced else None
            with tracing(session) if traced else nullcontext():
                ex, llc = self._contexts(kernel, process)
                if tier == "reference":
                    insert = ex.mmu.insert

                    def spy(va, page, mmu=ex.mmu):
                        before = mmu.stats.evictions
                        insert(va, page)
                        evicted_at[page.level] += mmu.stats.evictions - before

                    ex.mmu.insert = spy
                    ex.run_span(*stream)
                else:
                    runner = EscapeRunner(ex)
                    bounds = [n * k // spans for k in range(spans + 1)]
                    tlb = ex.tlb
                    assert bounds[1] > 300  # the THP fault falls in the first span
                    for lo, hi in zip(bounds, bounds[1:]):
                        skipping = not (tlb.l1_2m.occupancy() or tlb.l2_2m.occupancy())
                        assert skipping == (lo == 0)
                        runner.run(*stream, lo, hi, 0)
            states[tier] = _walk_path_state(ex, llc)

        assert states["runner"] == states["reference"]
        assert ex.escape_bailout == ex.tlb.totals.l1.hits
        if traced:
            events = {
                tier: [(e.name, e.ts, e.dur, e.track, e.args) for e in session.events]
                for tier, session in sessions.items()
            }
            assert events["runner"] == events["reference"]
        # The stream exercises what it pins: hits, misses and evictions in
        # every TLB structure, PSC evictions at levels 2 and 3, LLC
        # evictions, and demand faults of both page sizes.
        for name, stats, _entries in states["reference"]["tlb"]:
            assert stats.hits and stats.misses and stats.evictions, (name, stats)
        assert evicted_at[2] and evicted_at[3], evicted_at
        psc_stats = states["reference"]["psc_stats"]
        assert psc_stats.hits_at_level.get(2) and psc_stats.hits_at_level.get(3)
        llc_stats = states["reference"]["llc_stats"]
        assert llc_stats.hits and llc_stats.misses > llc.capacity_lines
        frames = states["reference"]["frames"]
        for name, huge in (("fault_huge", True), ("fault_small", False)):
            start, size = regions[name]
            assert {h for va, _pfn, h in frames if start <= va < start + size} == {huge}
        assert ex.faults > 2

    def test_level_1_psc_entry_is_probed(self):
        """A span fills no level-1 PSC entry, so the runner leaves an
        empty level-1 PSC out of its probe order. One that holds an entry
        when the span starts (here inserted by hand, for the 4 KiB
        region's leaf table) must stay in it: walks of that region start
        at level 1 in both tiers."""
        states = {}
        for tier in ("reference", "runner"):
            kernel, process, regions = _walk_process()
            stream = _walk_stream(4, regions)
            ex, llc = self._contexts(kernel, process)
            small = regions["small"][0]
            ex.mmu.insert(small, process.mm.tree.leaf_location(small).page)
            if tier == "reference":
                ex.run_span(*stream)
            else:
                runner = EscapeRunner(ex)
                runner.run(*stream, 0, len(stream[0]), 0)
            states[tier] = _walk_path_state(ex, llc)
        assert states["runner"] == states["reference"]
        assert states["reference"]["psc_stats"].hits_at_level.get(1)


class _FixedStream(Workload):
    """One thread's prepared address stream, as a workload."""

    profile = WorkloadProfile(
        name="fixed-stream",
        description="prepared stream",
        mlp=4.0,
        data_llc_hit_rate=0.3,
        pt_llc_pressure=0.2,
        write_fraction=0.0,
    )

    def __init__(self, offsets: list[int]):
        super().__init__(footprint=max(offsets) + PAGE_SIZE, seed=0)
        self._offsets = np.asarray(offsets, dtype=np.int64)

    def offsets(self, thread: int, n_threads: int, count: int) -> np.ndarray:
        # A fresh array, as the contract asks: the engine rebases it in place.
        return self._offsets[:count].copy()


def _phased_stream(seed, huge_base, small_base, phases=12, per_phase=2500):
    """Hot sets that fit the default L1 TLB, a new one every
    ``per_phase`` accesses (more than a chunk, so each phase's mask sees
    its pages resident): long runs of L1 hits, 4 KiB-only, 2 MiB-only and
    mixed, between bursts of misses, fills and evictions. Hot sets take
    turns through shuffled page lists, so every page is hot in some phase
    and both L1 structures evict."""
    rng = random.Random(seed)
    small = [(small_base + p * PAGE_SIZE, PAGE_SIZE) for p in range(SMALL_PAGES)]
    huge = [(huge_base + p * HUGE_PAGE_SIZE, HUGE_PAGE_SIZE) for p in range(HUGE_PAGES)]
    small = itertools.cycle(rng.sample(small, len(small)))
    huge = itertools.cycle(rng.sample(huge, len(huge)))
    vas = []
    for phase in range(phases):
        kind = phase % 3
        pages = list(itertools.islice(small, 16 if kind != 1 else 0))
        pages += itertools.islice(huge, 3 if kind != 0 else 0)
        for _ in range(per_phase):
            base, size = rng.choice(pages)
            vas.append(base + rng.randrange(size))
    return vas


def _run_stream(kernel, process, vas, engine, socket=0, **config) -> RunMetrics:
    va_base = min(vas)
    workload = _FixedStream([va - va_base for va in vas])
    config = EngineConfig(engine=engine, accesses_per_thread=len(vas), **config)
    return Simulator(kernel, config).run(process, workload, [socket], va_base)


def _hardware_state(kernel) -> list:
    """Per-structure stats and resident entries (LRU order within a
    set) of every core's TLB hierarchy, plus its hierarchy counters, and
    its MMU caches: stats and each level's entries in LRU order."""
    state = []
    for tlb, mmu in kernel.cpu_contexts:
        for name in STRUCTURES:
            structure = getattr(tlb, name)
            state.append((name, structure.stats, list(structure.resident_items())))
        state.append(tlb.totals)
        state.append((mmu.stats, _psc_entries(mmu)))
    return state


def _batched_share(metrics: RunMetrics) -> float:
    """Share of the run's accesses resolved by batched hit runs."""
    threads = metrics.threads
    accesses = sum(t.accesses for t in threads)
    escaped = sum(t.escape_l1_miss + t.escape_bailout for t in threads)
    return (accesses - escaped) / accesses


class TestFinalHardwareState:
    """After a whole run, the vector tier's TLBs hold what the scalar
    tier's hold: the same entries, in the same LRU order within every
    set, and the same counters, with batched hit runs mixed in."""

    def test_gups_scenario(self):
        state, metrics = {}, {}
        for engine in ("scalar", "vector"):
            setup, config = _build_gups(20_000)
            config.engine = engine
            sockets = [t.socket for t in setup.process.threads]
            simulator = Simulator(setup.kernel, config)
            metrics[engine] = simulator.run(setup.process, setup.workload, sockets, setup.va_base)
            state[engine] = _hardware_state(setup.kernel)
        assert _batched_share(metrics["vector"]) > 0.9
        assert metrics_equal(metrics["scalar"], metrics["vector"])
        assert state["vector"] == state["scalar"]

    @pytest.mark.parametrize("seed", [5, 17])
    def test_mixed_page_sizes(self, seed):
        state, metrics = {}, {}
        for engine in ("scalar", "vector"):
            kernel, process, huge_base, small_base = _mixed_process()
            vas = _phased_stream(seed, huge_base, small_base)
            metrics[engine] = _run_stream(kernel, process, vas, engine)
            state[engine] = _hardware_state(kernel)
        assert _batched_share(metrics["vector"]) > 0.5
        assert metrics_equal(metrics["scalar"], metrics["vector"])
        assert state["vector"] == state["scalar"]
        # The stream exercises what it pins: both L1 structures fill,
        # hit and evict.
        for name, stats, _entries in state["scalar"][:2]:
            assert stats.hits and stats.misses and stats.evictions, (name, stats)

    def test_sparse_residency_lut(self, monkeypatch):
        """Two hot 4 KiB regions 2 GiB apart: the L1-resident vpns span
        more than ``_LUT_SPAN_MAX`` pages, so the batch mask comes from
        the binary-search LUT."""
        sparse_probes = []
        slots = _ResidencyLut.slots

        def spy(self, vpns):
            if self.table is None:
                sparse_probes.append(vpns.size)
            return slots(self, vpns)

        monkeypatch.setattr(_ResidencyLut, "slots", spy)
        state, metrics = {}, {}
        for engine in ("scalar", "vector"):
            kernel = Kernel(Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=64 * MIB))
            process = kernel.create_process("sparse", socket=0)
            near = kernel.sys_mmap(process, 8 * PAGE_SIZE, populate=True, use_huge=False).value
            far = kernel.sys_mmap(
                process, 8 * PAGE_SIZE, populate=True, use_huge=False, fixed_va=near + 2 * GIB
            ).value
            rng = random.Random(9)
            pages = [base + p * PAGE_SIZE for base in (near, far) for p in range(4)]
            vas = [rng.choice(pages) + rng.randrange(PAGE_SIZE) for _ in range(6000)]
            metrics[engine] = _run_stream(kernel, process, vas, engine)
            state[engine] = _hardware_state(kernel)
        assert sparse_probes
        assert _batched_share(metrics["vector"]) > 0.9
        assert metrics_equal(metrics["scalar"], metrics["vector"])
        assert state["vector"] == state["scalar"]


class TestFaultPathException:
    """An access outside every VMA raises ``SegmentationFault`` from the
    fault path in the middle of an escape span. The span adds its
    counters to the stat blocks in ``finally``, so both tiers leave the
    same hardware state behind the exception: in the verdict span
    (access 100) and past it (300, 2000). Traced, both tiers leave the
    same session events: every walk before the faulting access emitted
    its span where it ended, and the faulting walk none."""

    @pytest.mark.parametrize(
        "bad, traced",
        [
            pytest.param(bad, traced, id=f"traced-{bad}" if traced else str(bad))
            for traced in (False, True)
            for bad in (100, 300, 2000)
        ],
    )
    def test_segfault_leaves_hardware_state_like_scalar(self, bad, traced):
        state, events = {}, {}
        for engine in ("scalar", "vector"):
            kernel, process, huge_base, small_base = _mixed_process()
            vas = _stream(5, huge_base, small_base)
            hole = small_base + SMALL_PAGES * PAGE_SIZE
            assert process.mm.vmas.find(hole) is None
            vas[bad] = hole
            session = TraceSession(sinks=()) if traced else None
            with tracing(session) if traced else nullcontext():
                with pytest.raises(SegmentationFault) as exc:
                    _run_stream(kernel, process, vas, engine)
            assert exc.value.vaddr == hole
            state[engine] = _hardware_state(kernel)
            if traced:
                events[engine] = [
                    (e.name, e.ts, e.dur, e.track, e.args) for e in session.events
                ]
        assert state["vector"] == state["scalar"]
        if traced:
            assert sum(name == "walk" for name, *_ in events["scalar"]) > 1
            assert events["vector"] == events["scalar"]


class TestDeferredReplay:
    """The vector tier replays the LRU promotions of its batched runs
    once per pending range, not once per run: before the next escape
    span and at slice end. A hot phase that fills the L1 4 KiB TLB runs
    as batched hits over several chunks and ends by touching one set's
    pages in reverse fill order; the miss that follows must evict the
    page that set touched longest ago. A replay that came late, early or
    never would evict a different victim than the scalar tier."""

    #: The default L1 4 KiB TLB: 16 sets of 4 ways.
    HOT_PAGES = 64
    N_SETS = 16
    TARGET_SET = 5

    def _stream(self, base, seed):
        """``(vas, set_pages, new_page)``: the hot phase, its reverse
        tail over ``TARGET_SET``'s pages, then the miss and a second
        hot phase that leaves that set alone."""
        rng = random.Random(seed)
        hot = [base + p * PAGE_SIZE for p in range(self.HOT_PAGES)]
        set_pages = [va for va in hot if (va >> PAGE_SHIFT) % self.N_SETS == self.TARGET_SET]
        first_new = self.HOT_PAGES + (self.TARGET_SET - (base >> PAGE_SHIFT)) % self.N_SETS
        new_page = base + first_new * PAGE_SIZE
        first = hot + [rng.choice(hot) for _ in range(3 * _CHUNK_MAX + 300)] + set_pages[::-1]
        others = [va for va in hot if va not in set_pages] + [new_page]
        second = [new_page] + [rng.choice(others) for _ in range(len(first) - 1)]
        return first + second, set_pages, new_page

    @pytest.mark.parametrize(
        "cell",
        ["one-slice", "slice-ends-in-batched-range", "autonuma-epoch-boundary"],
    )
    def test_miss_after_batched_range_evicts_like_scalar(self, cell, monkeypatch):
        replays, runs = [], []
        replay_range, chain_sum = engine_module._replay_range, engine_module._chain_sum

        def replay_spy(snapshot, vas, lo, hi):
            replays.append((lo, hi, vas.size))
            return replay_range(snapshot, vas, lo, hi)

        def chain_spy(chain):
            runs.append(chain.size - 1)
            return chain_sum(chain)

        monkeypatch.setattr(engine_module, "_replay_range", replay_spy)
        monkeypatch.setattr(engine_module, "_chain_sum", chain_spy)
        autonuma = cell == "autonuma-epoch-boundary"
        config = {}
        if cell == "slice-ends-in-batched-range":
            config = {"epochs": 2}
        elif autonuma:
            # A remote thread, so the balance pass between the two
            # slices migrates pages (and shoots the TLB down).
            config = {"autonuma_epochs": 2, "socket": 1}
        state, metrics = {}, {}
        for engine in ("scalar", "vector"):
            replays.clear()
            runs.clear()
            kernel = Kernel(
                Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=64 * MIB),
                sysctl=Sysctl(autonuma_enabled=autonuma),
            )
            process = kernel.create_process("replay", socket=0)
            base = kernel.sys_mmap(
                process, 2 * self.HOT_PAGES * PAGE_SIZE, populate=True, use_huge=False
            ).value
            vas, set_pages, new_page = self._stream(base, seed=4)
            metrics[engine] = _run_stream(kernel, process, vas, engine, **config)
            state[engine] = _hardware_state(kernel)
        assert metrics_equal(metrics["scalar"], metrics["vector"])
        assert state["vector"] == state["scalar"]
        assert _batched_share(metrics["vector"]) > 0.9
        # Deferral happened: fewer replays than batched runs, and one
        # replay covered a range spanning several chunks. Every batched
        # access was replayed once, and no escaped one.
        assert replays and len(replays) < len(runs)
        assert sum(hi - lo for lo, hi, _ in replays) == sum(runs)
        assert max(hi - lo for lo, hi, _ in replays) > 2 * _CHUNK_MAX
        if autonuma:
            assert kernel.autonuma.stats.balance_passes == 1
            assert metrics["vector"].overhead_cycles > 0
            return
        # The miss evicted the set page touched longest ago (the tail
        # touched them in reverse fill order), not the first filled.
        l1_set = [vpn << PAGE_SHIFT for vpn, _ in kernel.cpu_contexts[0][0].l1_4k.resident_items()
                  if vpn % self.N_SETS == self.TARGET_SET]
        assert l1_set == [set_pages[2], set_pages[1], set_pages[0], new_page]
        # The range ending on the tail was replayed right before the miss:
        # by the miss's escape span, or at the end of the slice the tail
        # ends.
        miss = len(vas) // 2
        ends = {(hi, size == miss) for _, hi, size in replays}
        assert (miss, cell == "slice-ends-in-batched-range") in ends


class TestWindows:
    """Batch windows double while their snapshot's token holds, up to
    ``_CHUNK_MAX``, and the window after one whose token went stale
    restarts at ``_CHUNK_MIN``. A long hot phase over three ways of every
    L1 4 KiB set grows the windows to the cap; a burst over two new pages
    per set evicts mid-window, so the next hit the cut window's mask
    promised finds the token stale and cuts it short; a second hot phase
    churns, settles and grows the windows back to the cap. Both tiers
    must leave the same metrics and hardware state."""

    #: Three of the default L1 4 KiB TLB's four ways in each of 16 sets.
    HOT_PAGES = 48
    BURST_PAGES = 32

    def _stream(self, base, seed):
        rng = random.Random(seed)
        hot = [base + p * PAGE_SIZE for p in range(self.HOT_PAGES)]
        burst = [base + (self.HOT_PAGES + p) * PAGE_SIZE for p in range(self.BURST_PAGES)]

        def phase():
            return [rng.choice(hot) + rng.randrange(PAGE_SIZE) for _ in range(3 * _CHUNK_MAX)]

        return hot + phase() + burst + phase()

    def test_windows_reach_the_cap_and_restart_after_a_stale_cut(self, monkeypatch):
        windows, replaying = [], []
        slots, replay_range = engine_module._Snapshot.slots, engine_module._replay_range

        def slots_spy(snapshot, vas):
            if not replaying:
                windows.append(vas.size)
            return slots(snapshot, vas)

        def replay_spy(*args):
            replaying.append(True)
            try:
                return replay_range(*args)
            finally:
                replaying.pop()

        monkeypatch.setattr(engine_module._Snapshot, "slots", slots_spy)
        monkeypatch.setattr(engine_module, "_replay_range", replay_spy)
        state, metrics = {}, {}
        for engine in ("scalar", "vector"):
            windows.clear()
            kernel = Kernel(Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=64 * MIB))
            process = kernel.create_process("windows", socket=0)
            base = kernel.sys_mmap(
                process, (self.HOT_PAGES + self.BURST_PAGES) * PAGE_SIZE, populate=True,
                use_huge=False,
            ).value
            vas = self._stream(base, seed=3)
            metrics[engine] = _run_stream(kernel, process, vas, engine)
            state[engine] = _hardware_state(kernel)
        assert metrics_equal(metrics["scalar"], metrics["vector"])
        assert state["vector"] == state["scalar"]
        assert _batched_share(metrics["vector"]) > 0.9
        # The windows grew to the cap, restarted at the minimum after the
        # burst and grew back to the cap.
        assert max(windows) == _CHUNK_MAX
        cap = windows.index(_CHUNK_MAX)
        restart = windows.index(_CHUNK_MIN, cap)
        assert _CHUNK_MAX in windows[restart:]
        # A window was cut short: the next one gathered part of its range
        # again, so the gathers cover more than the slice past the
        # verdict span.
        assert sum(windows) > len(vas) - _CHUNK_MIN

"""Unit tests for the batched escape tier's building blocks.

The end-to-end guarantees (bit-identical metrics, identical trace record
streams) live in test_engine_equivalence.py; these tests pin the
:class:`WalkTraceBuffer` mechanics directly — exact replay calls, clock
behaviour, reset semantics — and the inlined TLB probe of
:meth:`EscapeRunner.run` against :meth:`TlbHierarchy.lookup`.
"""

import random
from contextlib import nullcontext

import pytest

from repro.cache.llc import SocketLlc
from repro.kernel.kernel import Kernel
from repro.kernel.sysctl import Sysctl
from repro.machine.topology import Machine
from repro.paging.walker import HardwareWalker
from repro.sim.engine import EngineConfig, Simulator, _ThreadExecution
from repro.sim.escape import EscapeRunner, WalkTraceBuffer
from repro.sim.metrics import ThreadMetrics
from repro.tlb.mmu_cache import MmuCaches
from repro.tlb.tlb import TlbConfig, TlbHierarchy
from repro.trace.session import TraceSession, tracing
from repro.units import HUGE_PAGE_SIZE, KIB, MIB, PAGE_SIZE


def _buffer_with_two_walks(session):
    buf = WalkTraceBuffer(session, track=3, socket=1)
    # Walk 1: two levels (an L2-resumed walk), not faulted.
    buf.l_levels.extend([2, 1])
    buf.l_nodes.extend([0, 1])
    buf.l_hits.extend([True, False])
    buf.l_costs.extend([20.0, 150.25])
    buf.walk(va=0x1000, faulted=False, dur=170.25, n_levels=2)
    # Walk 2: one level, faulted then re-walked.
    buf.l_levels.append(1)
    buf.l_nodes.append(1)
    buf.l_hits.append(False)
    buf.l_costs.append(300.0)
    buf.walk(va=0x2000, faulted=True, dur=300.0, n_levels=1)
    return buf


class TestWalkTraceBuffer:
    def test_flush_replays_walk_spans_in_order(self):
        session = TraceSession(sinks=())
        buf = _buffer_with_two_walks(session)
        assert len(buf) == 2
        buf.flush()
        events = list(session.events)
        assert [e.name for e in events] == ["walk", "walk"]
        first, second = events
        assert first.args["va"] == 0x1000
        assert first.args["faulted"] is False
        assert first.dur == 170.25
        assert first.args["levels"] == [
            {"level": 2, "node": 0, "remote": True, "llc_hit": True, "cycles": 20.0},
            {"level": 1, "node": 1, "remote": False, "llc_hit": False, "cycles": 150.2},
        ]
        assert second.args["va"] == 0x2000
        assert second.args["faulted"] is True
        assert second.args["levels"] == [
            {"level": 1, "node": 1, "remote": False, "llc_hit": False, "cycles": 300.0}
        ]
        # track/socket attribution carried per buffer, not per walk.
        assert first.track == 3 and second.track == 3
        assert first.args["socket"] == 1

    def test_flush_advances_clock_like_inline_emission(self):
        """complete() ticks once per span and advances by dur — the flush
        must reproduce that exact tick/advance sequence."""
        session = TraceSession(sinks=())
        buf = _buffer_with_two_walks(session)
        buf.flush()
        first, second = list(session.events)
        assert second.ts == first.ts + 1.0 + first.dur
        assert session.clock.now == second.ts + second.dur

    def test_flush_feeds_walk_cycles_histogram(self):
        session = TraceSession(sinks=())
        buf = _buffer_with_two_walks(session)
        buf.flush()
        histogram = session.metrics.histograms["walker.walk_cycles"]
        assert histogram.count == 2

    def test_flush_resets_and_is_idempotent(self):
        session = TraceSession(sinks=())
        buf = _buffer_with_two_walks(session)
        buf.flush()
        assert len(buf) == 0
        assert not buf.l_levels
        emitted = len(session.events)
        buf.flush()  # empty flush: no-op, no clock activity
        assert len(session.events) == emitted


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
            runner.close()

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

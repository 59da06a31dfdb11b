"""The execution engine: drives address streams through the memory system.

For every access the engine models the full translation stack the paper
reasons about:

1. per-core two-level TLB lookup — hit means no walk at all;
2. on a miss, the paging-structure caches pick the deepest walk starting
   point (at best the L2 table: the walk loops fill them only with tables
   read above level 1, so the level-1 cache stays empty);
3. the hardware walker fetches one PTE cache-line per remaining level; each
   fetch probes the socket's LLC and, on a miss, pays the DRAM latency of
   whichever NUMA node holds that page-table page — *this* is where
   page-table placement becomes walk cycles;
4. the data access itself pays its own locality-dependent cost.

Latency is divided by the workload's memory-level parallelism (overlapped
misses), the bandwidth term is not; interference inflates both for hogged
nodes (see :mod:`repro.machine.latency`).

Two interpreter tiers produce **bit-identical** metrics (the differential
contract of docs/performance.md, enforced by
``tests/sim/test_engine_equivalence.py``):

* ``scalar`` — the reference per-access loop (:class:`_ThreadExecution`);
* ``vector`` (default) — a numpy fast path that resolves *runs* of
  guaranteed L1-TLB hits in bulk, validated in O(1) against
  :meth:`TlbHierarchy.fastpath_token` (whose generation half is bumped by
  every shootdown/invalidation path). Everything the hit mask cannot
  cover — the walk/fault/trace *escape classes* of docs/performance.md —
  runs on the batched escape interpreter (:mod:`repro.sim.escape`):
  inlined TLB, paging-structure-cache and LLC steps, the allocation-free
  walker batch entry point and fault-partitioned spans. Both tiers
  record a traced walk's span where the walk ends, through one function
  (:func:`repro.sim.escape.emit_walk_span`), so their record streams
  match exactly.

Select with ``EngineConfig(engine=...)`` or ``REPRO_ENGINE=scalar|vector``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cache.llc import SocketLlc
from repro.errors import TopologyError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine.latency import cost_table
from repro.paging.walker import HardwareWalker
from repro.sim.escape import EscapeRunner, emit_walk_span
from repro.sim.metrics import RunMetrics, ThreadMetrics
from repro.tlb.mmu_cache import MmuCacheConfig, MmuCaches
from repro.tlb.tlb import TlbConfig, TlbHierarchy
from repro.trace.session import current_session
from repro.units import HUGE_PAGE_SHIFT, KIB, PAGE_SHIFT
from repro.workloads.base import bernoulli

#: Engine names accepted by ``EngineConfig.engine`` / ``REPRO_ENGINE``.
ENGINES: tuple[str, ...] = ("scalar", "vector")

#: Accesses covered by one batch window's mask (one slot gather per page
#: size with an L1-resident entry), between ``_CHUNK_MIN`` and
#: ``_CHUNK_MAX``. A window that ends with its snapshot's token still
#: current doubles the next one: a mask built over a cold TLB is
#: all-escapes, so short early windows let the mask catch up with warmup
#: fills quickly, while a steady all-hit stretch pays one mask per
#: ``_CHUNK_MAX`` accesses. A window whose token went stale (cut short, or
#: ended after an eviction or invalidation) makes the next one restart at
#: ``_CHUNK_MIN``, so a churning TLB wastes little of a discarded mask.
#: Until a thread first batches, a slice's first ``_CHUNK_MIN`` accesses
#: run unmasked and decide whether it batches at all (see
#: ``Simulator._run_thread_vector``).
_CHUNK_MIN = 256
_CHUNK_MAX = 16_384
#: Below this run length the per-run numpy overhead exceeds scalar cost.
_MIN_RUN = 32
#: Deterministic bail-out: after this many accesses of a slice, if fewer
#: than 1/4 were batchable the rest of the slice runs on the escape
#: interpreter without further mask-building (the verdict span and the
#: first windows cover 3,840 accesses, so the post-warmup mask gets a
#: chance).
_ADAPT_PROBE = 4096
#: Accesses per block of ``_replay_range``'s backward scan.
_REPLAY_BLOCK = 2048
#: After a snapshot rebuild, stale-token transitions keep escaping for
#: this many accesses instead of rebuilding again: near TLB capacity
#: every walk evicts (bumping the token), and a rebuild per eviction
#: costs far more than a few conservative escape-side accesses.
_REBUILD_COOLDOWN = 64
#: AutoNUMA hinting samples 1 in 64 accesses: the slice indices whose low
#: six bits are clear.
_AUTONUMA_SAMPLE_MASK = 64 - 1

@dataclass
class EngineConfig:
    """Tunables of one simulation run.

    ``pt_llc_bytes`` is the LLC capacity *visible to page-table lines* —
    scaled with the footprint scale-down exactly as DESIGN.md describes (a
    35 MiB LLC holds a vanishing fraction of a 0.5 TB working set's leaf
    PTEs; 16 KiB preserves that regime at 128 MiB footprints while still
    letting the tiny 2 MiB-page leaf level fit, reproducing §8.2).
    """

    accesses_per_thread: int = 40_000
    pt_llc_bytes: int = 16 * KIB
    llc_hit_cycles: float = 40.0
    #: Concurrent hardware page walkers per core: even workloads with high
    #: memory-level parallelism can only overlap this many walks, which is
    #: why remote page-tables can hurt *more* than remote data (§3.2
    #: observation 4).
    page_walkers: int = 2
    tlb: TlbConfig = field(default_factory=TlbConfig)
    mmu: MmuCacheConfig = field(default_factory=MmuCacheConfig)
    #: AutoNUMA: number of balance passes spread through the run (0 = off).
    autonuma_epochs: int = 0
    #: Split the run into this many epochs even without AutoNUMA (enables
    #: the epoch callback below; 0 = single epoch).
    epochs: int = 0
    #: Invoked between epochs with (epoch_index, metrics_so_far) — the hook
    #: the §6.1 counter-driven policy daemon observes runs through.
    epoch_callback: "Callable[[int, RunMetrics], None] | None" = None
    seed: int = 7
    #: Interpreter tier: "vector" (batched fast path) or "scalar" (the
    #: reference per-access loop). ``None`` defers to the ``REPRO_ENGINE``
    #: environment variable, then to "vector". Both tiers produce
    #: bit-identical metrics (docs/performance.md).
    engine: str | None = None


def resolve_engine(engine: str | None = None) -> str:
    """The interpreter tier a run uses: ``engine`` if given, else the
    ``REPRO_ENGINE`` environment variable, else ``"vector"``."""
    engine = engine or os.environ.get("REPRO_ENGINE") or "vector"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {', '.join(ENGINES)} "
            "(EngineConfig.engine or REPRO_ENGINE)"
        )
    return engine


def _chain_sum(chain: np.ndarray) -> float:
    """Left-to-right IEEE-754 sum of ``chain``, laid out as
    ``[carry, c0, c1, ...]``: ``carry + c0 + c1 + ...``.

    ``np.add.accumulate`` applies the ufunc strictly sequentially (unlike
    ``np.sum``, which uses pairwise summation and rounds differently), so
    this reproduces the scalar loop's running ``+=`` bit-for-bit — the
    keystone of the engines' float-equality contract. Callers write the
    carry and the costs into one buffer, so the fold copies nothing.
    """
    return float(np.add.accumulate(chain)[-1])


def _replay_range(snapshot: "_Snapshot", vas: np.ndarray, lo: int, hi: int) -> None:
    """Replay the LRU effect of the batched hits ``vas[lo:hi]`` on the L1
    TLB, all resolved under ``snapshot``.

    The scalar loop promotes on every hit. With no fill or eviction in
    between, each set's final LRU order only depends on each page's
    *last* access, so promoting the touched pages in ascending
    last-access order leaves every set exactly where one ``touch`` per
    access would. The range is scanned backwards one ``_REPLAY_BLOCK``
    block at a time: ``np.maximum.at`` (an unbuffered scatter, so every
    repeated slot applies) folds each block's positions into one
    last-access position per slot, and the scan stops once every resident
    page has one, since earlier accesses cannot change the order. A hit's slot
    names the structure it hit, so 4 KiB hits never move the 2 MiB
    structure. The python loop runs once per touched page, at most the
    L1 capacity, however long the range.
    """
    last = np.full(snapshot.size, -1, dtype=np.int64)
    end = hi
    while end > lo:
        start = max(lo, end - _REPLAY_BLOCK)
        np.maximum.at(last, snapshot.slots(vas[start:end]), np.arange(start, end))
        end = start
        if last.min() >= 0:
            break
    first = 0
    for structure, lut in snapshot.structures:
        part = last[first:first + lut.vpns_sorted.size]
        first += part.size
        touched = np.flatnonzero(part >= 0)
        touch = structure.touch
        for vpn in lut.vpns_sorted[touched[np.argsort(part[touched])]].tolist():
            touch(vpn)


#: Widest vpn span a dense residency LUT may cover (beyond it, fall back
#: to binary search; L1 reach is tiny, so this only trips on wildly
#: scattered mappings).
_LUT_SPAN_MAX = 1 << 18


class _ResidencyLut:
    """O(1)-per-element slot lookup over one page size's L1-resident vpns
    (one half of a batch-mask snapshot).

    A vpn's *slot* is its index in ``vpns_sorted`` (the resident vpns,
    ascending; ``nodes_sorted`` holds their home nodes), or -1 when it is
    not resident. :class:`_Snapshot` numbers both page sizes' slots as
    one space, prices each slot from its node, and gathers the slots of
    each batch window (the batch mask is ``slots >= 0``) and of each
    replay.

    Resident vpns cluster inside the workload's contiguous mapping, so a
    dense ``[vpn - base]``-indexed slot table beats a binary search by a
    wide margin; ``np.searchsorted`` covers spans wider than
    ``_LUT_SPAN_MAX``.
    """

    __slots__ = ("vpns_sorted", "nodes_sorted", "base", "table")

    def __init__(self, pairs: list[tuple[int, int]], frames_per_node: int):
        pairs.sort()
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        vpns = self.vpns_sorted = arr[:, 0].copy()
        self.nodes_sorted = arr[:, 1] // frames_per_node
        first = int(vpns[0]) if vpns.size else 0
        span = int(vpns[-1]) - first + 1 if vpns.size else 0
        self.table = None
        if span <= _LUT_SPAN_MAX:
            # The span's slots between two -1 sentinels: ``take``'s clip
            # mode maps probes below or past the span onto them.
            self.base = first - 1
            self.table = np.full(span + 2, -1, dtype=np.int64)
            self.table[vpns - self.base] = np.arange(vpns.size)

    def slots(self, vpns: np.ndarray) -> np.ndarray:
        """Slot per vpn of a window, -1 where not resident."""
        table = self.table
        if table is None:
            resident = self.vpns_sorted
            pos = np.searchsorted(resident, vpns)
            return np.where(resident.take(pos, mode="clip") == vpns, pos, -1)
        return table.take(vpns - self.base, mode="clip")


class _Snapshot:
    """One batch-mask snapshot: every L1-resident page of both sizes at
    one :meth:`TlbHierarchy.fastpath_token`, numbered as one slot space.

    Slots ``[0, n4k)`` are the 4 KiB LUT's and ``[n4k, size)`` the 2 MiB
    LUT's, shifted by ``n4k``. ``costs[slot]`` is the data-access cost of
    the slot's home node, so a run's costs are one gather of its slots.
    """

    __slots__ = ("token", "lut_4k", "lut_2m", "n4k", "size", "costs", "structures")

    def __init__(self, tlb: TlbHierarchy, frames_per_node: int, data_cost: np.ndarray):
        self.token, pairs_4k, pairs_2m = tlb.fastpath_snapshot()
        lut_4k = self.lut_4k = _ResidencyLut(pairs_4k, frames_per_node)
        lut_2m = self.lut_2m = _ResidencyLut(pairs_2m, frames_per_node)
        self.n4k = lut_4k.vpns_sorted.size
        self.size = self.n4k + lut_2m.vpns_sorted.size
        self.costs = data_cost[np.concatenate((lut_4k.nodes_sorted, lut_2m.nodes_sorted))]
        self.structures = ((tlb.l1_4k, lut_4k), (tlb.l1_2m, lut_2m))

    def slots(self, vas: np.ndarray) -> np.ndarray:
        """Slot per va, -1 where neither L1 structure holds its page.

        Only page sizes with a resident entry are gathered. A page
        resident at both sizes takes its 4 KiB slot, as
        :meth:`TlbHierarchy.lookup` probes the 4 KiB structure first.
        """
        if self.size == self.n4k:
            return self.lut_4k.slots(vas >> PAGE_SHIFT)
        slots = self.lut_2m.slots(vas >> HUGE_PAGE_SHIFT)
        if self.n4k:
            np.add(slots, self.n4k, out=slots, where=slots >= 0)
            slots_4k = self.lut_4k.slots(vas >> PAGE_SHIFT)
            np.copyto(slots, slots_4k, where=slots_4k >= 0)
        return slots


class _ThreadExecution:
    """Per-(thread, epoch-slice) state shared by both interpreter tiers.

    Owns the cost tables and the running accumulators; :meth:`run_span` is
    the reference scalar interpreter (with :meth:`walk_one` as its
    TLB-miss path), and the vector tier's :class:`repro.sim.escape
    .EscapeRunner` reads the same fields and folds into the same
    accumulators with access-for-access identical semantics. Accumulators
    fold strictly left-to-right per counter, which keeps the float totals
    identical no matter how a slice is partitioned into batches and
    escape spans.
    """

    def __init__(
        self,
        sim: "Simulator",
        process: Process,
        walker: HardwareWalker,
        context: tuple[TlbHierarchy, MmuCaches],
        llcs: dict[int, SocketLlc],
        socket: int,
        mlp: float,
        out: ThreadMetrics,
    ):
        kernel = sim.kernel
        config = sim.config
        # Precomputed cost tables: [node] -> cycles for this socket. Data
        # accesses overlap up to the workload's MLP; walks only up to the
        # core's page-walker count.
        walk_mlp = min(mlp, float(config.page_walkers))
        nodes = tuple(kernel.machine.node_ids())
        hogged = frozenset(kernel.contention.hogged_nodes)
        self.data_cost = cost_table(kernel.timings, socket, nodes, mlp, hogged)
        self.walk_cost = cost_table(kernel.timings, socket, nodes, walk_mlp, hogged)
        self.llc_hit_cost = config.llc_hit_cycles / mlp
        self.walk_llc_hit_cost = config.llc_hit_cycles / walk_mlp
        self.frames_per_node = sim._frames_per_node
        self.process = process
        self.walker = walker
        self.tlb, self.mmu = context
        self.llc = llcs[socket]
        self.registry = process.mm.tree.registry
        self.fault_handler = kernel.fault_handler
        self.allow_huge = kernel.sysctl.thp_enabled
        self.autonuma = kernel.autonuma if kernel.sysctl.autonuma_enabled else None
        self.sample_mask = _AUTONUMA_SAMPLE_MASK
        self.socket = socket
        # Tracing: hoisted out of the loop so the disabled path costs one
        # local None-check per *walk* (never per access) — the
        # zero-overhead-when-disabled guarantee of docs/observability.md.
        self.session = current_session()
        self.track = 1 + out.thread
        self.data_cycles = 0.0
        self.walk_cycles = 0.0
        self.walks = 0
        self.walk_refs = 0
        self.walk_llc_hits = 0
        self.faults = 0
        self.fault_cycles = 0.0
        #: Guaranteed L1 hits handled escape-side for economic reasons
        #: (vector tier only; the scalar tier has no batcher to bail from).
        self.escape_bailout = 0
        # The L1-miss escape class is a hierarchy-counter delta: identical
        # between tiers because the batched runs replay hit counting
        # exactly, so the slice's miss total is a machine fact.
        self._l1_misses_start = self.tlb.totals.l1.misses

    def run_span(
        self,
        vas: list[int],
        writes: list[bool],
        hit_rolls: list[bool],
        pollution_rolls: list[bool],
        index_base: int = 0,
    ) -> None:
        """The reference per-access interpreter over one span of the slice.

        ``index_base`` keeps AutoNUMA's 1-in-N sampling positions aligned
        with the start of the epoch slice when the vector tier hands over
        a tail mid-slice.
        """
        tlb = self.tlb
        walk_one = self.walk_one
        data_cost = self.data_cost
        llc_hit_cost = self.llc_hit_cost
        frames_per_node = self.frames_per_node
        autonuma = self.autonuma
        sample_mask = self.sample_mask
        process = self.process
        socket = self.socket
        data_cycles = self.data_cycles
        for i, va in enumerate(vas):
            translation = tlb.lookup(va)
            if translation is None:
                translation = walk_one(va, writes[i], pollution_rolls[i])
            if hit_rolls[i]:
                data_cycles += llc_hit_cost
            else:
                data_cycles += data_cost[translation.pfn // frames_per_node]
            if autonuma is not None and ((index_base + i) & sample_mask) == 0:
                autonuma.record_access(process, va, socket)
        self.data_cycles = data_cycles

    def walk_one(self, va: int, is_write: bool, polluted: bool):
        """Full TLB-miss path: MMU-cache probe, hardware walk (servicing a
        demand fault if needed), one LLC probe per fetched level, fills."""
        self.walks += 1
        mmu = self.mmu
        walker = self.walker
        socket = self.socket
        start = mmu.lookup(va)
        result = walker.walk(va, socket, is_write, start=start)
        faulted = result.faulted
        if faulted:
            fr = self.fault_handler.handle(
                self.process,
                va,
                socket,
                is_write=is_write,
                allow_huge=self.allow_huge,
            )
            self.faults += 1
            self.fault_cycles += fr.work.cycles() + fr.io_cycles
            result = walker.walk(va, socket, is_write)
            assert result.translation is not None
        accesses = result.accesses
        leaf_access = accesses[-1]
        # The PSC fills every walked level above 1 but a hit's start level
        # (the walk's first), whose entry the lookup promoted already.
        top = accesses[0].level
        fill_below = top if start is not None and not faulted else top + 1
        llc_access = self.llc.access
        walk_cost = self.walk_cost
        walk_llc_hit_cost = self.walk_llc_hit_cost
        registry = self.registry
        walk_cycles = self.walk_cycles
        walk_llc_hits = self.walk_llc_hits
        session = self.session
        if session is None:
            for access in accesses:
                hit = llc_access(access.line_addr)
                if hit and access is leaf_access and polluted:
                    # Data traffic evicted this leaf PTE line since the
                    # last walk that used it (shared-LLC contention).
                    hit = False
                if hit:
                    walk_llc_hits += 1
                    walk_cycles += walk_llc_hit_cost
                else:
                    walk_cycles += walk_cost[access.node]
                if 1 < access.level < fill_below:
                    mmu.insert(va, registry[access.pfn])
            self.walk_cycles = walk_cycles
            self.walk_llc_hits = walk_llc_hits
            translation = result.translation
            self.tlb.insert(va, translation)
        else:
            walk_start = walk_cycles
            level_records = []
            record = level_records.append
            for access in accesses:
                hit = llc_access(access.line_addr)
                if hit and access is leaf_access and polluted:
                    hit = False
                if hit:
                    walk_llc_hits += 1
                    cost = walk_llc_hit_cost
                else:
                    cost = walk_cost[access.node]
                walk_cycles += cost
                record((access.level, access.node, hit, cost))
                if 1 < access.level < fill_below:
                    mmu.insert(va, registry[access.pfn])
            self.walk_cycles = walk_cycles
            self.walk_llc_hits = walk_llc_hits
            translation = result.translation
            self.tlb.insert(va, translation)
            emit_walk_span(
                session, self.track, va, socket, faulted,
                walk_cycles - walk_start, level_records,
            )
        self.walk_refs += len(accesses)
        return translation

    def finish(self, out: ThreadMetrics, n_accesses: int) -> None:
        """Fold this slice's accumulators into the thread metrics."""
        out.accesses += n_accesses
        out.data_cycles += self.data_cycles
        out.walk_cycles += self.walk_cycles
        out.fault_cycles += self.fault_cycles
        out.tlb_walks += self.walks
        out.tlb_lookups += n_accesses
        out.faults += self.faults
        out.walk_memory_refs += self.walk_refs
        out.walk_llc_hits += self.walk_llc_hits
        out.escape_l1_miss += self.tlb.totals.l1.misses - self._l1_misses_start
        out.escape_fault += self.faults
        out.escape_trace += self.walks if self.session is not None else 0
        out.escape_bailout += self.escape_bailout


class Simulator:
    """Runs workload streams against one kernel."""

    def __init__(self, kernel: Kernel, config: EngineConfig | None = None):
        self.kernel = kernel
        self.config = config or EngineConfig()
        self.engine = resolve_engine(self.config.engine)
        machine = kernel.machine
        # Homogeneous PFN partition -> O(1) node-of-pfn.
        self._frames_per_node = machine.sockets[0].memory_bytes // 4096
        for socket in machine.sockets:
            if socket.memory_bytes // 4096 != self._frames_per_node:
                raise TopologyError(
                    "engine fast path assumes homogeneous nodes: socket "
                    f"{socket.socket_id} has {socket.memory_bytes} bytes, "
                    f"expected {self._frames_per_node * 4096}"
                )

    def run(
        self,
        process: Process,
        workload,
        thread_sockets: list[int],
        va_base: int,
    ) -> RunMetrics:
        """Simulate ``workload`` on ``process`` with one thread per entry of
        ``thread_sockets``, accessing the mapping at ``va_base``.

        The VMA must already exist (see :class:`repro.sim.scenario` for
        population/placement); demand faults raised mid-run are serviced and
        charged to ``fault_cycles``.
        """
        config = self.config
        kernel = self.kernel
        metrics = RunMetrics()
        n_threads = len(thread_sockets)
        autonuma_on = kernel.sysctl.autonuma_enabled and config.autonuma_epochs > 0
        epochs = max(1, config.epochs, config.autonuma_epochs if autonuma_on else 0)

        # Per-socket LLCs (page-table lines), shared by threads on a socket.
        # The workload's data traffic competes for the same ways: on each
        # walk, the leaf PTE line has been evicted since its last use with
        # probability pt_llc_pressure. This is what lets Redis/Canneal lose
        # their page-table lines even with 2 MiB pages while GUPS keeps its
        # tiny, hot leaf level resident (the §8.2 analysis behind Fig. 10b).
        llcs = {
            node: SocketLlc(config.pt_llc_bytes, name=f"llc{node}")
            for node in kernel.machine.node_ids()
        }
        # Per-thread translation hardware, registered for shootdowns.
        kernel.cpu_contexts.clear()
        contexts = []
        for _ in range(n_threads):
            context = (TlbHierarchy(config.tlb), MmuCaches(config.mmu))
            contexts.append(context)
            kernel.cpu_contexts.append(context)

        walker = HardwareWalker(process.mm.tree)
        session = current_session()
        # Streams stay numpy end-to-end; the scalar tier converts its span
        # to python lists at the edge (list iteration is faster there).
        # ``offsets`` hands over a fresh array, so the base is added in
        # place: no second stream-sized array.
        n = config.accesses_per_thread
        streams = []
        for t, socket in enumerate(thread_sockets):
            kernel.scheduler.context_switch(process, socket)
            vas = np.asarray(workload.offsets(t, n_threads, n), dtype=np.int64)
            vas += va_base
            streams.append((vas, np.asarray(workload.writes(t, n))))
            metrics.threads.append(ThreadMetrics(thread=t, socket=socket))
            if session is not None:
                session.name_track(1 + t, f"thread-{t} (socket {socket})")

        hit_rate = workload.profile.data_llc_hit_rate
        pressure = workload.profile.pt_llc_pressure
        rng = np.random.default_rng(config.seed)
        rolls = [bernoulli(rng, n, hit_rate) for _ in range(n_threads)]
        # The pollution rolls are drawn after every hit roll and nothing
        # draws after them, so skipping the draw shifts no other roll. At
        # pressure <= 0 no roll can fire (random() < 0 is never true), so
        # the skipped draw's result is exactly all False.
        pollution = [
            bernoulli(rng, n, pressure) if pressure > 0 else np.zeros(n, dtype=bool)
            for _ in range(n_threads)
        ]

        run_thread = self._run_thread if self.engine == "scalar" else self._run_thread_vector
        per_epoch = n // epochs
        for epoch in range(epochs):
            lo = epoch * per_epoch
            hi = n if epoch == epochs - 1 else lo + per_epoch
            if session is not None:
                session.instant("epoch", category="engine", epoch=epoch)
            for t, socket in enumerate(thread_sockets):
                vas, writes = streams[t]
                run_thread(
                    process,
                    walker,
                    contexts[t],
                    llcs,
                    socket,
                    vas[lo:hi],
                    writes[lo:hi],
                    rolls[t][lo:hi],
                    pollution[t][lo:hi],
                    workload.profile.mlp,
                    metrics.threads[t],
                )
            if autonuma_on and epoch < epochs - 1:
                work = kernel.autonuma.balance(process)
                metrics.overhead_cycles += work.cycles()
                metrics.overhead_cycles += kernel.shootdown.flush_all(kernel.cpu_contexts)
            if config.epoch_callback is not None and epoch < epochs - 1:
                self._sync_robustness(metrics)
                config.epoch_callback(epoch, metrics)
        self._sync_robustness(metrics)
        if session is not None:
            self._publish_trace(session, contexts, llcs, metrics)
        return metrics

    def _publish_trace(self, session, contexts, llcs, metrics: RunMetrics) -> None:
        """Flush the translation hardware's hit/miss/evict counters and
        the finished run's perf-counter view into the trace session, so
        one registry holds the whole run (docs/observability.md)."""
        from repro.trace.integrate import publish_run_metrics

        registry = session.metrics
        for tlb, mmu in contexts:
            registry.count("tlb.l1.hits", tlb.totals.l1.hits)
            registry.count("tlb.l1.misses", tlb.totals.l1.misses)
            registry.count("tlb.l2.hits", tlb.totals.l2.hits)
            registry.count("tlb.l2.misses", tlb.totals.l2.misses)
            registry.count("tlb.walks", tlb.totals.walks)
            for structure in (tlb.l1_4k, tlb.l1_2m, tlb.l2_4k, tlb.l2_2m):
                registry.count("tlb.evictions", structure.stats.evictions)
            registry.count("mmu_cache.lookups", mmu.stats.lookups)
            registry.count("mmu_cache.hits", mmu.stats.hits)
            registry.count("mmu_cache.evictions", mmu.stats.evictions)
        for node in sorted(llcs):
            registry.count("llc.pt_hits", llcs[node].stats.hits)
            registry.count("llc.pt_misses", llcs[node].stats.misses)
        publish_run_metrics(session, metrics)

    def _sync_robustness(self, metrics: RunMetrics) -> None:
        """Mirror the kernel's fault-injection and resilience counters into
        the run metrics (absolute values — idempotent)."""
        kernel = self.kernel
        plan = getattr(kernel, "fault_plan", None)
        if plan is not None:
            metrics.faults_injected = plan.stats.total
        resilience = getattr(kernel, "resilience", None)
        if resilience is not None:
            metrics.degradations = resilience.degradations
            metrics.retries = resilience.retries
            metrics.recoveries = resilience.recoveries

    # -- scalar tier ------------------------------------------------------------

    def _run_thread(
        self,
        process: Process,
        walker: HardwareWalker,
        context: tuple[TlbHierarchy, MmuCaches],
        llcs: dict[int, SocketLlc],
        socket: int,
        vas: np.ndarray,
        writes: np.ndarray,
        hit_rolls: np.ndarray,
        pollution_rolls: np.ndarray,
        mlp: float,
        out: ThreadMetrics,
    ) -> None:
        """Reference tier: the per-access interpreter over the whole slice."""
        ex = _ThreadExecution(self, process, walker, context, llcs, socket, mlp, out)
        ex.run_span(
            vas.tolist(), writes.tolist(), hit_rolls.tolist(), pollution_rolls.tolist()
        )
        ex.finish(out, int(vas.size))

    # -- vector tier ------------------------------------------------------------

    def _run_thread_vector(
        self,
        process: Process,
        walker: HardwareWalker,
        context: tuple[TlbHierarchy, MmuCaches],
        llcs: dict[int, SocketLlc],
        socket: int,
        vas: np.ndarray,
        writes: np.ndarray,
        hit_rolls: np.ndarray,
        pollution_rolls: np.ndarray,
        mlp: float,
        out: ThreadMetrics,
    ) -> None:
        """Batch tier: resolve runs of guaranteed L1-TLB hits in bulk.

        A *run* is a maximal stretch of accesses whose pages were all
        L1-resident when the batch mask was built. During a run of hits
        the TLB performs no fills or evictions, so residency at run start
        guarantees every access in it hits — the bulk replay (stats adds,
        last-access LRU promotions, ``_chain_sum`` cost folding)
        reproduces the scalar tier's state transitions exactly.

        Each batch window makes one :meth:`_Snapshot.slots` gather over
        its own slice of ``vas``, of the page sizes that have an
        L1-resident entry only; the mask is ``slots >= 0``. A window whose
        snapshot's token is still current when it ends doubles the next
        one, up to ``_CHUNK_MAX``; after a window whose token went stale
        the next one restarts at ``_CHUNK_MIN``. A run's costs are one gather of
        the snapshot's per-slot costs into a ``[carry, costs...]`` buffer,
        LLC hits overwrite theirs in place, and one ``_chain_sum`` folds
        the buffer. The LRU promotions are deferred: the batched runs
        since the last escape always form one contiguous range (whatever
        separates two runs is an escape span), and
        :func:`_replay_range` replays that range before the next escape
        span, before a snapshot rebuild and at slice end — once per
        escape, not once per run, with python work per resident page,
        not per access.

        Everything else — misses, short runs, cooldown stretches, the
        post-bail-out tail — is handed to the batched escape interpreter
        (:class:`EscapeRunner`) in maximal *spans* rather than one access
        at a time: the mask is fixed while a span runs (escapes never
        un-stale a token or flip mask bits from miss to hit), so span
        boundaries land exactly where the per-access loop's would. Faults
        partition a span inside the runner. Masks are revalidated
        against ``fastpath_token()`` before every batched run, so a
        shootdown / replication change / migration (which bump the TLB
        generation) forces a re-resolve and a stale batched translation
        is impossible.

        Until a thread has batched at least once, each of its slices
        decides whether it batches before any residency LUT is built: the
        first ``_CHUNK_MIN`` accesses run as one escape span, and if fewer
        than a quarter of them hit the L1 TLB (the span's bail-out delta),
        the slice is walk-bound and the rest runs as one more escape span,
        with no snapshot, mask or window lists.
        """
        ex = _ThreadExecution(self, process, walker, context, llcs, socket, mlp, out)
        n = int(vas.size)
        if n == 0:
            ex.finish(out, 0)
            return
        tlb = ex.tlb
        data_cost_arr = np.asarray(ex.data_cost, dtype=np.float64)
        autonuma = ex.autonuma
        l1_4k = tlb.l1_4k
        l1_2m = tlb.l1_2m
        totals_l1 = tlb.totals.l1
        escape = EscapeRunner(ex)

        def as_lists(lo: int, hi: int) -> tuple[list, list, list, list]:
            """Python-list copies of ``[lo, hi)`` for the escape interpreter."""
            return (
                vas[lo:hi].tolist(),
                writes[lo:hi].tolist(),
                hit_rolls[lo:hi].tolist(),
                pollution_rolls[lo:hi].tolist(),
            )

        snap: _Snapshot | None = None
        snap_walks = -1
        # The batched runs not yet replayed: [replay_lo, replay_hi).
        replay_lo = replay_hi = 0

        def replay() -> None:
            """Replay the pending batched range's LRU promotions."""
            nonlocal replay_lo
            if replay_hi > replay_lo:
                _replay_range(snap, vas, replay_lo, replay_hi)
                replay_lo = replay_hi

        slots: np.ndarray | None = None
        ok: np.ndarray | None = None
        # One run's ``[carry, costs...]`` fold buffer; runs never cross a
        # window, so none is longer than ``_CHUNK_MAX``.
        chain = np.empty(_CHUNK_MAX + 1, dtype=np.float64)
        # Window-local python lists for escape spans, built lazily on the
        # first escape within a window (all-hit steady-state windows never
        # pay the conversion).
        chunk_lists: tuple[list, list, list, list] | None = None
        chunk_lo = 0
        chunk_hi = 0
        chunk_size = _CHUNK_MIN
        fast = 0
        cooldown = 0
        i = 0
        batches = True
        if out.accesses == out.escape_l1_miss + out.escape_bailout:
            # The verdict, taken until the thread first batches: after
            # that its TLB is warm and a verdict span would only run hits
            # escape-side. The span stands in for the first window. Every
            # L1 hit it handles is a bail-out, so the bail-out count is
            # its hit count.
            i = min(_CHUNK_MIN, n)
            escape.run(*as_lists(0, i), 0, i, 0)
            batches = ex.escape_bailout * 4 >= i
            chunk_size = 2 * _CHUNK_MIN
        while batches and i < n:
            if i >= chunk_hi:
                ok = None
            elif ok is not None and ok[i - chunk_lo] and tlb.fastpath_token() != snap.token:
                # An escape evicted or invalidated entries after this mask
                # was built; it can no longer be trusted for batching.
                if i < cooldown:
                    # Recently rebuilt: run the (always sound) escape
                    # interpreter to the cooldown horizon rather than
                    # rebuilding on every eviction. One span is exact:
                    # the token stays stale (it never un-stales), so
                    # every access up to the horizon escapes anyway.
                    stop = min(cooldown, chunk_hi)
                    chunk_lists = chunk_lists or as_lists(chunk_lo, chunk_hi)
                    replay()
                    escape.run(*chunk_lists, i - chunk_lo, stop - chunk_lo, chunk_lo)
                    i = stop
                    continue
                ok = None
            if ok is None:
                # Deterministic economics, checked before every rebuild:
                # when batching is not paying off (miss-heavy slice, or
                # hits too scattered to form batchable runs), hand the
                # rest to the escape interpreter in one span.
                if i >= _ADAPT_PROBE and fast * 4 < i:
                    break
                stale = snap is not None and tlb.fastpath_token() != snap.token
                if stale:
                    # The last window's snapshot went stale: the TLB is
                    # churning, so the next mask starts small again.
                    chunk_size = _CHUNK_MIN
                if snap is None or stale or ex.walks != snap_walks:
                    replay()
                    snap = _Snapshot(tlb, ex.frames_per_node, data_cost_arr)
                    snap_walks = ex.walks
                    cooldown = i + _REBUILD_COOLDOWN
                chunk_lo = i
                chunk_hi = min(i + chunk_size, n)
                chunk_size = min(chunk_size * 2, _CHUNK_MAX)
                slots = snap.slots(vas[chunk_lo:chunk_hi])
                ok = slots >= 0
                chunk_lists = None
            rel = i - chunk_lo
            if not ok[rel]:
                # A maximal run of will-miss accesses: one escape span.
                k = int(ok[rel:].argmax()) or ok.size - rel
                chunk_lists = chunk_lists or as_lists(chunk_lo, chunk_hi)
                replay()
                escape.run(*chunk_lists, rel, rel + k, chunk_lo)
                i += k
                continue
            k = int(ok[rel:].argmin()) or ok.size - rel
            if k < _MIN_RUN:
                # Guaranteed hits, but too short for numpy to pay off.
                # Deliberately not counted as fast progress: a slice made
                # of short scattered runs loses to mask-rebuild overhead
                # and should bail out of mask-building entirely.
                chunk_lists = chunk_lists or as_lists(chunk_lo, chunk_hi)
                replay()
                escape.run(*chunk_lists, rel, rel + k, chunk_lo)
                i += k
                continue
            fast += k
            # ---- batched run of k guaranteed L1 hits ------------------------
            run = slots[rel:rel + k]
            if snap.n4k == snap.size:
                n2m = 0
            elif snap.n4k == 0:
                n2m = k
            else:
                n2m = int(np.count_nonzero(run >= snap.n4k))
            # Hierarchy counters, exactly as k scalar lookups would count
            # them (a 2 MiB hit first misses the 4 KiB L1 structure).
            totals_l1.hits += k
            l1_4k.stats.hits += k - n2m
            if n2m:
                l1_4k.stats.misses += n2m
                l1_2m.stats.hits += n2m
            if i != replay_hi:
                replay()
                replay_lo = i
            replay_hi = i + k
            costs = chain[1:k + 1]
            chain[0] = ex.data_cycles
            # "clip" lets ``take`` write into ``out`` unbuffered; every
            # slot of a run is in range.
            snap.costs.take(run, out=costs, mode="clip")
            np.copyto(costs, ex.llc_hit_cost, where=hit_rolls[i:i + k])
            ex.data_cycles = _chain_sum(chain[:k + 1])
            if autonuma is not None:
                # The run's sampled indices: i rounded up to the sampling
                # stride, then every stride up to the run's end.
                first = (i + _AUTONUMA_SAMPLE_MASK) & ~_AUTONUMA_SAMPLE_MASK
                for p in range(first, i + k, _AUTONUMA_SAMPLE_MASK + 1):
                    autonuma.record_access(process, int(vas[p]), socket)
            i += k
        replay()
        if i < n:
            # Walk-bound verdict or adaptive bail-out: escape interpreter
            # for the whole tail.
            escape.run(*as_lists(i, n), 0, n - i, i)
        ex.finish(out, n)

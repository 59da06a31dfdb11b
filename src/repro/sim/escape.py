"""The batched escape tier: scalar-identical walks, without the scalar tax.

The vector engine batches *runs of guaranteed L1-TLB hits* in numpy
(:mod:`repro.sim.engine`); everything else — the three escape classes of
docs/performance.md — used to fall back to the reference per-access loop:

* **walk** escapes: L1 misses that consult the paging-structure caches
  and run the hardware walker;
* **fault** escapes: walks that hit a non-present entry and enter the
  demand-fault path (possibly with injected stalls);
* **trace** escapes: walks made while a live :class:`TraceSession`
  records per-level walk spans.

On service-shaped workloads (redis with a partly-swapped working set,
memcached whose footprint dwarfs TLB reach) those escapes dominate the
stream, and the reference loop's cost — a :class:`LevelAccess` +
:class:`WalkResult` allocation per walk, four method-call TLB probes per
access, a per-walk list-of-dicts for the trace span — capped the vector
tier at ~1x. This module is the batched counterpart for all three
classes:

* :meth:`EscapeRunner.run` interprets a *run* of escape-side accesses
  with semantics identical to ``_ThreadExecution.run_span`` (same
  counter increments, same IEEE-754 accumulation order, same LRU
  transitions), but with every step of the miss path inlined — the TLB
  and paging-structure-cache probes, the LLC probes and the fills — and
  the walker entered through the allocation-free
  :meth:`HardwareWalker.walk_into` batch entry point, the one call a
  walk makes;
* faults *partition* a span instead of ending batching: the span flushes
  deferred trace state, services the fault through the unchanged kernel
  path, and resumes batched on the next access;
* :class:`WalkTraceBuffer` buffers walk spans as structure-of-arrays
  while a span runs and flushes them into the session's ring afterwards,
  reproducing the scalar tier's record stream — names, payloads and
  virtual-clock timestamps — bit-for-bit (pinned by the trace-ordering
  differential in ``tests/sim/test_engine_equivalence.py``).

The bit-identical-metrics contract is unchanged: both tiers must agree
on every counter and cycle sum. Anything here that drifted from the
reference loop fails the differential suite before it ships.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.paging.levels import HUGE_LEAF_LEVEL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import _ThreadExecution
    from repro.trace.session import TraceSession


class WalkTraceBuffer:
    """Structure-of-arrays buffer of walk spans, flushed post-span.

    While an escape span runs, each walk appends its per-level records
    into four flat arrays and one row into the per-walk arrays — no
    dicts, no event objects, no clock activity. :meth:`flush` replays the
    buffered walks into the session in order, issuing exactly the
    ``observe`` + ``complete`` calls the scalar tier's ``walk_one`` makes
    inline. Because nothing else ticks the session clock between a
    buffered walk and its flush (fault instants force a flush *first*,
    and batched hit runs emit nothing), the flushed events carry the same
    virtual-clock timestamps inline emission would have produced.
    """

    __slots__ = (
        "session", "track", "socket",
        "w_vas", "w_faulted", "w_durs", "w_counts",
        "l_levels", "l_nodes", "l_hits", "l_costs",
    )

    def __init__(self, session: "TraceSession", track: int, socket: int):
        self.session = session
        self.track = track
        self.socket = socket
        # Per-walk rows.
        self.w_vas: list[int] = []
        self.w_faulted: list[bool] = []
        self.w_durs: list[float] = []
        self.w_counts: list[int] = []
        # Flat per-level columns (w_counts partitions them into walks).
        self.l_levels: list[int] = []
        self.l_nodes: list[int] = []
        self.l_hits: list[bool] = []
        self.l_costs: list[float] = []

    def walk(self, va: int, faulted: bool, dur: float, n_levels: int) -> None:
        """Record one finished walk whose ``n_levels`` level rows were
        just appended to the flat columns."""
        self.w_vas.append(va)
        self.w_faulted.append(faulted)
        self.w_durs.append(dur)
        self.w_counts.append(n_levels)

    def __len__(self) -> int:
        return len(self.w_vas)

    def flush(self) -> None:
        """Emit every buffered walk span, oldest first, then reset.

        The produced events are indistinguishable from the scalar tier's
        inline emission: one ``walker.walk_cycles`` histogram observation
        plus one ``walk`` complete-span per walk, identical payloads,
        identical tick/advance sequence on the virtual clock.
        """
        if not self.w_vas:
            return
        session = self.session
        observe = session.observe
        complete = session.complete
        track = self.track
        socket = self.socket
        levels = self.l_levels
        nodes = self.l_nodes
        hits = self.l_hits
        costs = self.l_costs
        pos = 0
        for va, faulted, dur, count in zip(
            self.w_vas, self.w_faulted, self.w_durs, self.w_counts
        ):
            end = pos + count
            observe("walker.walk_cycles", dur)
            complete(
                "walk",
                category="walker",
                dur=dur,
                track=track,
                va=va,
                socket=socket,
                faulted=faulted,
                levels=[
                    {
                        "level": levels[j],
                        "node": nodes[j],
                        "remote": nodes[j] != socket,
                        "llc_hit": hits[j],
                        "cycles": round(costs[j], 1),
                    }
                    for j in range(pos, end)
                ],
            )
            pos = end
        self.w_vas.clear()
        self.w_faulted.clear()
        self.w_durs.clear()
        self.w_counts.clear()
        levels.clear()
        nodes.clear()
        hits.clear()
        costs.clear()


class EscapeRunner:
    """Per-slice driver of the batched escape tier.

    Owns the walk scratch arrays (reused across every walk of the slice)
    and the :class:`WalkTraceBuffer` when a session is live. The engine
    hands it *runs* of accesses — everything the hit-batching mask could
    not cover — as window-local python lists.
    """

    __slots__ = ("ex", "tracebuf", "out_levels", "out_pfns", "out_nodes", "out_lines")

    def __init__(self, ex: "_ThreadExecution"):
        self.ex = ex
        self.tracebuf = (
            WalkTraceBuffer(ex.session, ex.track, ex.socket)
            if ex.session is not None
            else None
        )
        # Deepest possible walk: the 5-level root. Reused, never resized.
        self.out_levels = [0] * 6
        self.out_pfns = [0] * 6
        self.out_nodes = [0] * 6
        self.out_lines = [0] * 6

    def run(
        self,
        vas: list[int],
        writes: list[bool],
        hit_rolls: list[bool],
        pollution_rolls: list[bool],
        lo: int,
        hi: int,
        abs_base: int,
    ) -> None:
        """Interpret accesses ``[lo, hi)`` of the given window-local lists.

        ``abs_base`` is the slice-absolute index of the lists' element 0,
        so AutoNUMA's 1-in-N sampling positions stay aligned with the
        epoch slice exactly as the reference loop aligns them.

        Semantics are access-for-access identical to
        ``_ThreadExecution.run_span`` over the same elements, and a walk
        costs one pass through this loop plus one call into
        :meth:`HardwareWalker.walk_into`. Every other step of the miss
        path is inlined, with the same probe order, counter, LRU and
        eviction transitions as the method it stands for:

        * the TLB hierarchy probe (:meth:`TlbHierarchy.lookup`);
        * the paging-structure-cache probe (:meth:`MmuCaches.lookup`);
        * one LLC probe per fetched level (:meth:`SocketLlc.access`);
        * the PSC fill of every walked level above 1
          (:meth:`MmuCaches.insert`) but a PSC hit's start level, whose
          entry the probe promoted already (the scalar tier skips it too);
        * the TLB fills: one L1 fill for L2 hits and walks
          (``TlbHierarchy._fill_l1``), then the L2 fill of a walk
          (:meth:`TlbHierarchy.insert`), chosen by page size.

        ``tests/sim/test_escape.py`` pins every copy to its method.
        Faults take the unchanged kernel path (after a trace flush —
        fault sites emit instants inline) and re-walk from CR3 without a
        PSC probe, and every accumulator folds in the same order.

        While neither 2 MiB TLB structure holds an entry their probes
        cannot hit, so the loop skips them and counts their misses in
        locals. Only a walk to a huge leaf can fill them during a span
        (an L2 2 MiB hit needs an entry; flushes only remove entries), so
        that walk adds the pending misses and ends the skip.
        """
        ex = self.ex
        tracebuf = self.tracebuf
        tlb = ex.tlb
        # Inlined TLB hierarchy: structures, set lists and stat blocks.
        l1_4k = tlb.l1_4k
        l1_2m = tlb.l1_2m
        l2_4k = tlb.l2_4k
        l2_2m = tlb.l2_2m
        sets1_4, n1_4, ways1_4, st1_4 = l1_4k._sets, l1_4k.n_sets, l1_4k.ways, l1_4k.stats
        sets1_2, n1_2, ways1_2, st1_2 = l1_2m._sets, l1_2m.n_sets, l1_2m.ways, l1_2m.stats
        sets2_4, n2_4, ways2_4, st2_4 = l2_4k._sets, l2_4k.n_sets, l2_4k.ways, l2_4k.stats
        sets2_2, n2_2, ways2_2, st2_2 = l2_2m._sets, l2_2m.n_sets, l2_2m.ways, l2_2m.stats
        totals = tlb.totals
        totals_l1 = totals.l1
        totals_l2 = totals.l2
        # Inlined paging-structure caches and the socket's LLC.
        mmu = ex.mmu
        psc_probe = mmu._probe
        psc_fill = mmu._fill
        psc_stats = mmu.stats
        psc_hits = psc_stats.hits_at_level
        llc_lines = ex.llc._lines
        llc_capacity = ex.llc.capacity_lines
        llc_stats = ex.llc.stats
        walk_into = ex.walker.walk_into
        registry = ex.registry
        handle_fault = ex.fault_handler.handle
        process = ex.process
        socket = ex.socket
        allow_huge = ex.allow_huge
        data_cost = ex.data_cost
        llc_hit_cost = ex.llc_hit_cost
        walk_cost = ex.walk_cost
        walk_llc_hit_cost = ex.walk_llc_hit_cost
        frames_per_node = ex.frames_per_node
        autonuma = ex.autonuma
        sample_mask = ex.sample_mask
        out_levels = self.out_levels
        out_pfns = self.out_pfns
        out_nodes = self.out_nodes
        out_lines = self.out_lines
        if tracebuf is not None:
            # Bound once per span: flush() clears these lists in place.
            tb_level = tracebuf.l_levels.append
            tb_node = tracebuf.l_nodes.append
            tb_hit = tracebuf.l_hits.append
            tb_cost = tracebuf.l_costs.append
        # Accumulators mirror the reference loop's locals.
        data_cycles = ex.data_cycles
        walk_cycles = ex.walk_cycles
        walks = ex.walks
        walk_refs = ex.walk_refs
        walk_llc_hits = ex.walk_llc_hits
        faults = ex.faults
        fault_cycles = ex.fault_cycles
        # Every L1 hit handled here is a bail-out: the batching mask ceded
        # it for economic reasons (short run / cooldown / bail-out), never
        # for correctness. Folded once, as the span's L1-hit delta.
        l1_hits_start = totals_l1.hits
        # The 2 MiB structures' skipped probes and the misses they owe.
        skip_2m = not (l1_2m.occupancy() or l2_2m.occupancy())
        pending_l1_2m = pending_l2_2m = 0

        try:
            for i in range(lo, hi):
                va = vas[i]
                # -- L1 probe (split 4 KiB / 2 MiB), inlined Tlb.lookup --------
                vpn = va >> 12
                entry_set = sets1_4[vpn % n1_4]
                translation = entry_set.get(vpn)
                if translation is not None:
                    entry_set.move_to_end(vpn)
                    st1_4.hits += 1
                else:
                    st1_4.misses += 1
                    if skip_2m:
                        pending_l1_2m += 1
                    else:
                        hvpn = va >> 21
                        entry_set = sets1_2[hvpn % n1_2]
                        translation = entry_set.get(hvpn)
                        if translation is not None:
                            entry_set.move_to_end(hvpn)
                            st1_2.hits += 1
                        else:
                            st1_2.misses += 1
                if translation is not None:
                    totals_l1.hits += 1
                else:
                    totals_l1.misses += 1
                    # -- L2 probe -----------------------------------------------
                    entry_set = sets2_4[vpn % n2_4]
                    translation = entry_set.get(vpn)
                    if translation is not None:
                        entry_set.move_to_end(vpn)
                        st2_4.hits += 1
                    else:
                        st2_4.misses += 1
                        if skip_2m:
                            pending_l2_2m += 1
                        else:
                            hvpn = va >> 21
                            entry_set = sets2_2[hvpn % n2_2]
                            translation = entry_set.get(hvpn)
                            if translation is not None:
                                entry_set.move_to_end(hvpn)
                                st2_2.hits += 1
                            else:
                                st2_2.misses += 1
                    if translation is not None:
                        totals_l2.hits += 1
                    else:
                        totals_l2.misses += 1
                        totals.walks += 1
                        walks += 1
                        # -- PSC probe, inlined MmuCaches.lookup ----------------
                        psc_stats.lookups += 1
                        start = None
                        for level, cache, shift in psc_probe:
                            tag = va >> shift
                            page = cache.get(tag)
                            if page is not None:
                                cache.move_to_end(tag)
                                psc_hits[level] = psc_hits.get(level, 0) + 1
                                start = (page, level)
                                break
                        # -- the walk: the one call below this loop -------------
                        is_write = writes[i]
                        n_levels, translation = walk_into(
                            va, socket, is_write,
                            out_levels, out_pfns, out_nodes, out_lines, start,
                        )
                        faulted = translation is None
                        if faulted:
                            if tracebuf is not None:
                                # Fault sites emit instants inline; flush the
                                # deferred walk spans first so the record
                                # stream keeps the scalar tier's order.
                                tracebuf.flush()
                            fr = handle_fault(
                                process, va, socket,
                                is_write=is_write, allow_huge=allow_huge,
                            )
                            faults += 1
                            fault_cycles += fr.work.cycles() + fr.io_cycles
                            n_levels, translation = walk_into(
                                va, socket, is_write,
                                out_levels, out_pfns, out_nodes, out_lines,
                            )
                            assert translation is not None
                        last = n_levels - 1
                        # PSC fills skip a hit's start level (the walk's
                        # first): the probe promoted its entry already.
                        top = out_levels[0]
                        fill_below = top if start is not None and not faulted else top + 1
                        walk_start = walk_cycles
                        for j in range(n_levels):
                            # -- LLC probe, inlined SocketLlc.access ------------
                            line = out_lines[j]
                            if line in llc_lines:
                                llc_lines.move_to_end(line)
                                llc_stats.hits += 1
                                # A polluted leaf line: data traffic evicted
                                # it since the last walk that used it.
                                hit = j != last or not pollution_rolls[i]
                            else:
                                llc_stats.misses += 1
                                if len(llc_lines) >= llc_capacity:
                                    llc_lines.popitem(last=False)
                                llc_lines[line] = None
                                hit = False
                            if hit:
                                walk_llc_hits += 1
                                cost = walk_llc_hit_cost
                            else:
                                cost = walk_cost[out_nodes[j]]
                            walk_cycles += cost
                            level = out_levels[j]
                            if tracebuf is not None:
                                tb_level(level)
                                tb_node(out_nodes[j])
                                tb_hit(hit)
                                tb_cost(cost)
                            if 1 < level < fill_below:
                                # -- PSC fill, inlined MmuCaches.insert ---------
                                fill = psc_fill.get(level)
                                if fill is not None:
                                    cache, shift, capacity = fill
                                    tag = va >> shift
                                    page = registry[out_pfns[j]]
                                    if tag in cache:
                                        cache.move_to_end(tag)
                                    elif len(cache) >= capacity:
                                        cache.popitem(last=False)
                                        psc_stats.evictions += 1
                                    cache[tag] = page
                        if tracebuf is not None:
                            tracebuf.walk(va, faulted, walk_cycles - walk_start, n_levels)
                        walk_refs += n_levels
                        # -- L2 fill, inlined Tlb.insert --------------------------
                        if translation.level == HUGE_LEAF_LEVEL:
                            if skip_2m:
                                # The span's first 2 MiB fill: the skipped
                                # probes' misses land before it.
                                st1_2.misses += pending_l1_2m
                                st2_2.misses += pending_l2_2m
                                pending_l1_2m = pending_l2_2m = 0
                                skip_2m = False
                            key = va >> 21
                            entry_set, ways, stats = sets2_2[key % n2_2], ways2_2, st2_2
                        else:
                            key = vpn
                            entry_set, ways, stats = sets2_4[key % n2_4], ways2_4, st2_4
                        if key in entry_set:
                            entry_set.move_to_end(key)
                        elif len(entry_set) >= ways:
                            entry_set.popitem(last=False)
                            stats.evictions += 1
                        entry_set[key] = translation
                    # -- L1 fill (L2 hit or walk), inlined Tlb.insert ---------
                    if translation.level == HUGE_LEAF_LEVEL:
                        key = va >> 21
                        entry_set, ways, stats = sets1_2[key % n1_2], ways1_2, st1_2
                    else:
                        key = vpn
                        entry_set, ways, stats = sets1_4[key % n1_4], ways1_4, st1_4
                    if key in entry_set:
                        entry_set.move_to_end(key)
                    elif len(entry_set) >= ways:
                        entry_set.popitem(last=False)
                        stats.evictions += 1
                    entry_set[key] = translation
                # -- the data access itself ------------------------------------
                if hit_rolls[i]:
                    data_cycles += llc_hit_cost
                else:
                    data_cycles += data_cost[translation.pfn // frames_per_node]
                if autonuma is not None and ((abs_base + i) & sample_mask) == 0:
                    autonuma.record_access(process, va, socket)
        finally:
            # Also on an exception from the fault path, so the 2 MiB
            # counters stay where the reference loop leaves them.
            st1_2.misses += pending_l1_2m
            st2_2.misses += pending_l2_2m

        ex.data_cycles = data_cycles
        ex.walk_cycles = walk_cycles
        ex.walks = walks
        ex.walk_refs = walk_refs
        ex.walk_llc_hits = walk_llc_hits
        ex.faults = faults
        ex.fault_cycles = fault_cycles
        ex.escape_bailout += totals_l1.hits - l1_hits_start

    def close(self) -> None:
        """End-of-slice flush: no walk span may outlive its slice (the
        next epoch's ``epoch`` instant would otherwise overtake it)."""
        if self.tracebuf is not None:
            self.tracebuf.flush()

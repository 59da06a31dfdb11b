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
access — capped the vector tier at ~1x. This module is the batched
counterpart for all three classes:

* :meth:`EscapeRunner.run` interprets a *run* of escape-side accesses
  with semantics identical to ``_ThreadExecution.run_span`` (same
  counter totals, same IEEE-754 accumulation order, same LRU
  transitions), but with every step of the miss path inlined — the TLB
  and paging-structure-cache probes, the LLC probes and the fills — its
  counters kept in locals for the span, and the walker entered through
  the allocation-free :func:`repro.paging.walker.walk_into`, the one
  call a walk makes;
* faults *partition* a span instead of ending batching: the span
  services the fault through the unchanged kernel path and resumes
  batched on the next access;
* with a live session, each walk's span is recorded where the walk
  ends, through :func:`emit_walk_span`, the function the scalar tier's
  ``walk_one`` calls too. Both tiers make the same session calls in the
  same order, so their record streams — names, payloads and
  virtual-clock timestamps — match bit-for-bit (pinned by the
  trace-ordering differential in ``tests/sim/test_engine_equivalence.py``).

The bit-identical-metrics contract is unchanged: both tiers must agree
on every counter and cycle sum. Anything here that drifted from the
reference loop fails the differential suite before it ships.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.paging.levels import HUGE_LEAF_LEVEL
from repro.paging.walker import walk_into

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import _ThreadExecution
    from repro.trace.session import TraceSession


def emit_walk_span(
    session: "TraceSession",
    track: int,
    va: int,
    socket: int,
    faulted: bool,
    dur: float,
    levels: list[tuple[int, int, bool, float]],
) -> None:
    """Record one finished walk: a ``walker.walk_cycles`` observation,
    then the ``walk`` span, with one ``{level, node, remote, llc_hit,
    cycles}`` record per fetched level.

    ``levels`` holds one ``(level, node, llc_hit, cycles)`` tuple per
    fetched level, in fetch order. Both tiers call this where the walk
    ends (``_ThreadExecution.walk_one`` and :meth:`EscapeRunner.run`), so
    their record streams match call for call.
    """
    session.observe("walker.walk_cycles", dur)
    session.complete(
        "walk",
        category="walker",
        dur=dur,
        track=track,
        va=va,
        socket=socket,
        faulted=faulted,
        levels=[
            {
                "level": level,
                "node": node,
                "remote": node != socket,
                "llc_hit": hit,
                "cycles": round(cost, 1),
            }
            for level, node, hit, cost in levels
        ],
    )


class EscapeRunner:
    """Per-slice driver of the batched escape tier.

    Owns the walk scratch arrays (reused across every walk of the slice).
    The engine hands it *runs* of accesses — everything the hit-batching
    mask could not cover — as window-local python lists.
    """

    __slots__ = ("ex", "out_levels", "out_pfns", "out_nodes", "out_lines")

    def __init__(self, ex: "_ThreadExecution"):
        self.ex = ex
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
        :func:`repro.paging.walker.walk_into`, from the start the loop
        resolved (the PSC hit, or the CR3 root). Every other step of the
        miss path is inlined, with the same probe order, LRU and eviction
        transitions as the method it stands for:

        * the TLB hierarchy probe (:meth:`TlbHierarchy.lookup`), one
          ``dict.get`` on a structure's residency map per probe;
        * the paging-structure-cache probe (:meth:`MmuCaches.lookup`);
        * one LLC probe per fetched level (:meth:`SocketLlc.access`);
        * the PSC fill of every walked level above 1
          (:meth:`MmuCaches.insert`) but a PSC hit's start level, whose
          entry the probe promoted already (the scalar tier skips it too);
        * the TLB fills: one L1 fill for L2 hits and walks
          (``TlbHierarchy._fill_l1``), then the L2 fill of a walk
          (:meth:`TlbHierarchy.insert`), chosen by page size. A 4 KiB
          fill reuses the set list its probe found, and no fill checks
          for its key: the probe just missed it, and nothing between a
          probe and its fill inserts a translation (the fault path only
          flushes and invalidates, in place).

        ``tests/sim/test_escape.py`` pins every copy to its method.
        Faults take the unchanged kernel path and re-walk from CR3
        without a PSC probe, and every accumulator folds in the same
        order. With a live session, each walk's ``(level, node, llc_hit,
        cycles)`` tuples go to a per-walk list that :func:`emit_walk_span`
        records where the walk ends, as ``walk_one`` does.

        The span's counters (TLB, PSC and LLC stats, hierarchy totals)
        are locals, added to their stat blocks once, in ``finally``, so
        that an exception from the fault path leaves them where the
        reference loop does. ``hits_at_level`` is counted per walk. Two
        probes are skipped where they can only miss: while neither 2 MiB
        TLB structure holds an entry (only a walk to a huge leaf can fill
        one during a span: an L2 2 MiB hit needs an entry, and flushes
        only remove entries), and a level-1 PSC that is empty at span
        start (a span fills no level-1 entry).
        """
        ex = self.ex
        session = ex.session
        tlb = ex.tlb
        # Inlined TLB hierarchy: residency maps, set lists and ways.
        l1_4k, l1_2m, l2_4k, l2_2m = tlb.l1_4k, tlb.l1_2m, tlb.l2_4k, tlb.l2_2m
        map1_4, sets1_4, n1_4, ways1_4 = l1_4k._map, l1_4k._sets, l1_4k.n_sets, l1_4k.ways
        map1_2, sets1_2, n1_2, ways1_2 = l1_2m._map, l1_2m._sets, l1_2m.n_sets, l1_2m.ways
        map2_4, sets2_4, n2_4, ways2_4 = l2_4k._map, l2_4k._sets, l2_4k.n_sets, l2_4k.ways
        map2_2, sets2_2, n2_2, ways2_2 = l2_2m._map, l2_2m._sets, l2_2m.n_sets, l2_2m.ways
        # Inlined paging-structure caches and the socket's LLC.
        mmu = ex.mmu
        # A span fills no level-1 entry, so an empty level-1 PSC stays unprobed.
        psc_probe = [
            (level, cache, shift) for level, cache, shift in mmu._probe if level > 1 or cache
        ]
        psc_fill = mmu._fill
        psc_hits = mmu.stats.hits_at_level
        llc_lines = ex.llc._lines
        llc_capacity = ex.llc.capacity_lines
        # The walk's start: a PSC hit, or this socket's CR3 root.
        tree = ex.walker.tree
        registry = tree.registry
        root_level = tree.geometry.root_level
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
        if session is not None:
            track = ex.track
            # One walk's level records, cleared once the walk is emitted.
            records: list[tuple[int, int, bool, float]] = []
            record = records.append
        # Accumulators mirror the reference loop's locals.
        data_cycles = ex.data_cycles
        walk_cycles = ex.walk_cycles
        walks = ex.walks
        walk_refs = ex.walk_refs
        walk_llc_hits = ex.walk_llc_hits
        faults = ex.faults
        fault_cycles = ex.fault_cycles
        # The span's counters: hits and misses per TLB structure (the
        # 2 MiB misses follow, see ``finally``), evictions, and the PSC's
        # and LLC's.
        hits1_4 = misses1_4 = hits1_2 = hits2_4 = misses2_4 = hits2_2 = 0
        evicted1_4 = evicted1_2 = evicted2_4 = evicted2_2 = 0
        psc_evictions = llc_hits = llc_misses = 0
        # Whether the 2 MiB probes are skipped (both structures empty).
        skip_2m = not (map1_2 or map2_2)

        try:
            for i in range(lo, hi):
                va = vas[i]
                # -- L1 probe (split 4 KiB / 2 MiB), inlined Tlb.lookup --------
                vpn = va >> 12
                set1_4 = sets1_4[vpn % n1_4]
                translation = map1_4.get(vpn)
                if translation is not None:
                    set1_4.remove(vpn)
                    set1_4.append(vpn)
                    hits1_4 += 1
                else:
                    misses1_4 += 1
                    if not skip_2m:
                        hvpn = va >> 21
                        translation = map1_2.get(hvpn)
                        if translation is not None:
                            entry_set = sets1_2[hvpn % n1_2]
                            entry_set.remove(hvpn)
                            entry_set.append(hvpn)
                            hits1_2 += 1
                if translation is None:
                    # -- L2 probe -----------------------------------------------
                    set2_4 = sets2_4[vpn % n2_4]
                    translation = map2_4.get(vpn)
                    if translation is not None:
                        set2_4.remove(vpn)
                        set2_4.append(vpn)
                        hits2_4 += 1
                    else:
                        misses2_4 += 1
                        if not skip_2m:
                            translation = map2_2.get(hvpn)
                            if translation is not None:
                                entry_set = sets2_2[hvpn % n2_2]
                                entry_set.remove(hvpn)
                                entry_set.append(hvpn)
                                hits2_2 += 1
                    if translation is None:
                        walks += 1
                        # -- PSC probe, inlined MmuCaches.lookup ----------------
                        for level, cache, shift in psc_probe:
                            tag = va >> shift
                            page = cache.get(tag)
                            if page is not None:
                                cache.move_to_end(tag)
                                psc_hits[level] = psc_hits.get(level, 0) + 1
                                # PSC fills skip a hit's start level (the
                                # walk's first): the probe promoted it.
                                fill_below = level
                                break
                        else:
                            page = registry[tree.ops.root_pfn_for_socket(tree, socket)]
                            level = root_level
                            fill_below = root_level + 1
                        # -- the walk: the one call below this loop -------------
                        is_write = writes[i]
                        n_levels, translation = walk_into(
                            registry, page, level, va, is_write,
                            out_levels, out_pfns, out_nodes, out_lines,
                        )
                        faulted = translation is None
                        if faulted:
                            fr = handle_fault(
                                process, va, socket,
                                is_write=is_write, allow_huge=allow_huge,
                            )
                            faults += 1
                            fault_cycles += fr.work.cycles() + fr.io_cycles
                            n_levels, translation = walk_into(
                                registry, registry[tree.ops.root_pfn_for_socket(tree, socket)],
                                root_level, va, is_write,
                                out_levels, out_pfns, out_nodes, out_lines,
                            )
                            assert translation is not None
                            fill_below = root_level + 1
                        last = n_levels - 1
                        walk_start = walk_cycles
                        for j in range(n_levels):
                            # -- LLC probe, inlined SocketLlc.access ------------
                            line = out_lines[j]
                            if line in llc_lines:
                                llc_lines.move_to_end(line)
                                llc_hits += 1
                                # A polluted leaf line: data traffic evicted
                                # it since the last walk that used it.
                                hit = j != last or not pollution_rolls[i]
                            else:
                                llc_misses += 1
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
                            if session is not None:
                                record((level, out_nodes[j], hit, cost))
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
                                        psc_evictions += 1
                                    cache[tag] = page
                        if session is not None:
                            emit_walk_span(
                                session, track, va, socket, faulted,
                                walk_cycles - walk_start, records,
                            )
                            records.clear()
                        walk_refs += n_levels
                        # -- L2 fill, inlined Tlb.insert --------------------------
                        if translation.level == HUGE_LEAF_LEVEL:
                            skip_2m = False
                            hvpn = va >> 21
                            entry_set = sets2_2[hvpn % n2_2]
                            if len(entry_set) >= ways2_2:
                                del map2_2[entry_set.pop(0)]
                                evicted2_2 += 1
                            entry_set.append(hvpn)
                            map2_2[hvpn] = translation
                        else:
                            if len(set2_4) >= ways2_4:
                                del map2_4[set2_4.pop(0)]
                                evicted2_4 += 1
                            set2_4.append(vpn)
                            map2_4[vpn] = translation
                    # -- L1 fill (L2 hit or walk), inlined Tlb.insert ---------
                    if translation.level == HUGE_LEAF_LEVEL:
                        hvpn = va >> 21
                        entry_set = sets1_2[hvpn % n1_2]
                        if len(entry_set) >= ways1_2:
                            del map1_2[entry_set.pop(0)]
                            evicted1_2 += 1
                        entry_set.append(hvpn)
                        map1_2[hvpn] = translation
                    else:
                        if len(set1_4) >= ways1_4:
                            del map1_4[set1_4.pop(0)]
                            evicted1_4 += 1
                        set1_4.append(vpn)
                        map1_4[vpn] = translation
                # -- the data access itself ------------------------------------
                if hit_rolls[i]:
                    data_cycles += llc_hit_cost
                else:
                    data_cycles += data_cost[translation.pfn // frames_per_node]
                if autonuma is not None and ((abs_base + i) & sample_mask) == 0:
                    autonuma.record_access(process, va, socket)
        finally:
            # Also on an exception from the fault path, so every counter
            # stays where the reference loop leaves it. Each L1 4 KiB miss
            # probes the L1 2 MiB structure (or skips a probe that can only
            # miss), so the 2 MiB misses, which are the L1 misses, are the
            # 4 KiB misses the 2 MiB structure did not hit; likewise at L2,
            # where each miss is a walk and each walk probes the PSC once.
            l1_misses = misses1_4 - hits1_2
            l2_misses = misses2_4 - hits2_2
            for stats, hits, misses, evictions in (
                (l1_4k.stats, hits1_4, misses1_4, evicted1_4),
                (l1_2m.stats, hits1_2, l1_misses, evicted1_2),
                (l2_4k.stats, hits2_4, misses2_4, evicted2_4),
                (l2_2m.stats, hits2_2, l2_misses, evicted2_2),
                (tlb.totals.l1, hits1_4 + hits1_2, l1_misses, 0),
                (tlb.totals.l2, hits2_4 + hits2_2, l2_misses, 0),
            ):
                stats.hits += hits
                stats.misses += misses
                stats.evictions += evictions
            tlb.totals.walks += l2_misses
            mmu.stats.lookups += l2_misses
            mmu.stats.evictions += psc_evictions
            ex.llc.stats.hits += llc_hits
            ex.llc.stats.misses += llc_misses

        ex.data_cycles = data_cycles
        ex.walk_cycles = walk_cycles
        ex.walks = walks
        ex.walk_refs = walk_refs
        ex.walk_llc_hits = walk_llc_hits
        ex.faults = faults
        ex.fault_cycles = fault_cycles
        # Every L1 hit handled here is a bail-out: the batching mask ceded
        # it for economic reasons (short run / cooldown / bail-out), never
        # for correctness.
        ex.escape_bailout += hits1_4 + hits1_2

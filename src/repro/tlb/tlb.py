"""Set-associative TLBs.

The paper's testbed has a per-core two-level TLB: a small split L1 (64
4 KiB entries + 32 2 MiB entries on Haswell) and a 1024-entry unified L2.
TLB *reach* versus workload footprint decides the miss rate, and the miss
rate decides how often the NUMA placement of page-tables matters — so the
geometry is faithfully configurable while the replacement policy is plain
LRU per set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.paging.levels import HUGE_LEAF_LEVEL
from repro.paging.pagetable import Translation
from repro.units import HUGE_PAGE_SHIFT, PAGE_SHIFT


@dataclass
class TlbStats:
    """Hit/miss counters for one TLB structure."""

    hits: int = 0
    misses: int = 0
    #: LRU victims pushed out by fills (capacity pressure, not shootdowns).
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Tlb:
    """One set-associative translation buffer for a single page size.

    Residency lives in one dict, ``_map`` (vpn -> translation), so a probe
    is one ``dict.get``; each set is a list of its vpns, least recently
    used first, so a hit moves its vpn to the end and an eviction pops
    the front. Both are mutated in place, never rebound: the escape tier
    binds them once per span (``repro.sim.escape``).
    """

    def __init__(self, entries: int, ways: int, page_shift: int, name: str = "tlb"):
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ValueError(f"{name}: entries ({entries}) must be a positive multiple of ways")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.page_shift = page_shift
        self.n_sets = entries // ways
        self._map: dict[int, Translation] = {}
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.stats = TlbStats()

    def lookup(self, va: int) -> Translation | None:
        """Probe for ``va``; LRU-promotes and counts on hit."""
        vpn = va >> self.page_shift
        hit = self._map.get(vpn)
        if hit is not None:
            entry_set = self._sets[vpn % self.n_sets]
            entry_set.remove(vpn)
            entry_set.append(vpn)
            self.stats.hits += 1
            return hit
        self.stats.misses += 1
        return None

    def insert(self, va: int, translation: Translation) -> None:
        """Fill ``va``'s entry, evicting the set's LRU victim if full."""
        vpn = va >> self.page_shift
        entry_set = self._sets[vpn % self.n_sets]
        if vpn in self._map:
            entry_set.remove(vpn)
        elif len(entry_set) >= self.ways:
            del self._map[entry_set.pop(0)]
            self.stats.evictions += 1
        entry_set.append(vpn)
        self._map[vpn] = translation

    # protocol: defers[tlb-generation] -- single-level evict; the hierarchy owns the bump
    def invalidate(self, va: int) -> None:
        vpn = va >> self.page_shift
        if self._map.pop(vpn, None) is not None:
            self._sets[vpn % self.n_sets].remove(vpn)

    # protocol: defers[tlb-generation] -- single-level flush; the hierarchy owns the bump
    def flush(self) -> None:
        self._map.clear()
        for entry_set in self._sets:
            entry_set.clear()

    def touch(self, vpn: int) -> None:
        """LRU-promote a *known-resident* ``vpn`` without counting a hit.

        The vector engine replays the promotions of a batched run of hits
        in last-access order; the hit counters for the whole run are added
        in bulk. Raises ``ValueError`` if the entry is not resident — the
        batch was validated against stale state, which must never happen.
        """
        entry_set = self._sets[vpn % self.n_sets]
        entry_set.remove(vpn)
        entry_set.append(vpn)

    def resident_items(self):
        """Iterate ``(vpn, translation)`` over every resident entry (set
        order, LRU order within a set — deterministic)."""
        resident = self._map
        for entry_set in self._sets:
            for vpn in entry_set:
                yield vpn, resident[vpn]

    def occupancy(self) -> int:
        return len(self._map)

    @property
    def reach_bytes(self) -> int:
        """Memory covered when fully populated."""
        return self.entries << self.page_shift


@dataclass
class TlbConfig:
    """Geometry of one core's TLB hierarchy.

    4 KiB structures default to the paper hardware's published sizes
    (64-entry L1 + 1024-entry L2). The 2 MiB structures are *scaled down*
    (8 + 16 entries instead of Haswell's 32 + shared-1024): at paper scale
    even the huge-page TLB covers well under 1% of the footprint ("the TLB
    reach is still less than 1%, assuming 1TB of main memory for any page
    size", §7.3), and with MiB-scale simulated footprints only a small
    huge-page TLB preserves that miss regime. Pass explicit values to model
    other hardware.
    """

    l1_entries: int = 64
    l1_ways: int = 4
    l1_huge_entries: int = 8
    l1_huge_ways: int = 4
    l2_entries: int = 1024
    l2_ways: int = 8
    l2_huge_entries: int = 16
    l2_huge_ways: int = 4


@dataclass
class HierarchyStats:
    l1: TlbStats = field(default_factory=TlbStats)
    l2: TlbStats = field(default_factory=TlbStats)
    #: Misses that went all the way to the page-walker.
    walks: int = 0


class TlbHierarchy:
    """One core's two-level TLB (split-L1 + unified L2).

    Besides the hardware structures, the hierarchy keeps a ``generation``
    counter, bumped by *every* path that can remove a translation —
    :meth:`flush` and :meth:`invalidate_page`, through which all
    shootdown/replication/migration invalidations funnel (see
    ``repro.tlb.shootdown``). A consumer that captured translations at
    generation *G* can therefore validate an entire batch in O(1): while
    ``generation == G`` nothing has been invalidated (new fills only
    *add*; :meth:`fastpath_token` also counts capacity evictions). This
    is what makes the vector engine's batched runs sound
    (docs/performance.md).
    """

    def __init__(self, config: TlbConfig | None = None):
        config = config or TlbConfig()
        self.config = config
        self.l1_4k = Tlb(config.l1_entries, config.l1_ways, PAGE_SHIFT, "l1-4k")
        self.l1_2m = Tlb(config.l1_huge_entries, config.l1_huge_ways, HUGE_PAGE_SHIFT, "l1-2m")
        self.l2_4k = Tlb(config.l2_entries, config.l2_ways, PAGE_SHIFT, "l2-4k")
        self.l2_2m = Tlb(config.l2_huge_entries, config.l2_huge_ways, HUGE_PAGE_SHIFT, "l2-2m")
        self.totals = HierarchyStats()
        #: Bumped on every invalidation (shootdowns, replication mask
        #: changes, page migration all end in flush()/invalidate_page()).
        self.generation = 0

    def lookup(self, va: int) -> Translation | None:
        """Probe L1 then L2 (both page sizes); fills L1 on an L2 hit."""
        hit = self.l1_4k.lookup(va)
        if hit is None:
            hit = self.l1_2m.lookup(va)
        if hit is not None:
            self.totals.l1.hits += 1
            return hit
        self.totals.l1.misses += 1
        hit = self.l2_4k.lookup(va)
        if hit is None:
            hit = self.l2_2m.lookup(va)
        if hit is not None:
            self.totals.l2.hits += 1
            self._fill_l1(va, hit)
            return hit
        self.totals.l2.misses += 1
        self.totals.walks += 1
        return None

    def insert(self, va: int, translation: Translation) -> None:
        """Fill after a successful walk (both levels, size-appropriate)."""
        if translation.level == HUGE_LEAF_LEVEL:
            self.l1_2m.insert(va, translation)
            self.l2_2m.insert(va, translation)
        else:
            self.l1_4k.insert(va, translation)
            self.l2_4k.insert(va, translation)

    def _fill_l1(self, va: int, translation: Translation) -> None:
        if translation.level == HUGE_LEAF_LEVEL:
            self.l1_2m.insert(va, translation)
        else:
            self.l1_4k.insert(va, translation)

    # protocol: mutates[tlb-generation] -- evicts cached translations; must stamp a new generation
    def invalidate_page(self, va: int) -> None:
        for tlb in (self.l1_4k, self.l1_2m, self.l2_4k, self.l2_2m):
            tlb.invalidate(va)
        self.generation += 1

    # protocol: mutates[tlb-generation] -- drops every cached translation; must stamp a new generation
    def flush(self) -> None:
        for tlb in (self.l1_4k, self.l1_2m, self.l2_4k, self.l2_2m):
            tlb.flush()
        self.generation += 1

    def fastpath_token(self) -> tuple[int, int]:
        """Validity token for batched-run snapshots.

        A snapshot of L1-resident translations stays *sound* while this
        token is unchanged: the generation counts invalidations, the
        eviction sum counts L1 capacity victims — the only two ways an
        entry can leave L1. New fills only add entries, which at worst
        makes a stale snapshot conservative (a would-be hit escapes to
        the scalar path), never wrong.
        """
        return (self.generation, self.l1_4k.stats.evictions + self.l1_2m.stats.evictions)

    def fastpath_snapshot(self) -> tuple[tuple[int, int], list[tuple[int, int]], list[tuple[int, int]]]:
        """Capture every L1-resident translation as ``(vpn, pfn)`` pairs.

        Returns ``(token, pairs_4k, pairs_2m)`` where ``token`` is the
        :meth:`fastpath_token` the snapshot is valid under. For a huge page
        the pfn is the last-walked 4 KiB subframe's; its node
        (pfn // frames_per_node) is invariant across the huge page.
        """
        pairs_4k = [(vpn, t.pfn) for vpn, t in self.l1_4k.resident_items()]
        pairs_2m = [(vpn, t.pfn) for vpn, t in self.l1_2m.resident_items()]
        return self.fastpath_token(), pairs_4k, pairs_2m

    @property
    def miss_rate(self) -> float:
        """End-to-end miss rate (walks / lookups)."""
        lookups = self.totals.l1.accesses
        return self.totals.walks / lookups if lookups else 0.0

"""Paging-structure (MMU) caches.

x86 walkers keep small caches of upper-level entries (PML4E/PDPTE/PDE
caches, [19, 24, 26] in the paper) so a TLB miss usually skips straight to
the leaf PTE. This is why the paper focuses on *leaf* PTE placement:
"upper-level PTEs can be cached in MMU caches ... at least leaf-level PTEs
have to be accessed" (§3.1).

A cache entry of level *L* remembers: "the walk for any VA with this prefix
may start at this level-*L* table page". Lookup returns the deepest usable
starting point.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.paging.levels import level_shift
from repro.paging.pagetable import PageTablePage


@dataclass
class MmuCacheConfig:
    """Entries per starting-level cache.

    Keys are the level of the *table page* a hit lets the walk start at: a
    level-1 hit means only the leaf PTE itself needs fetching. Defaults are
    scaled down with the rest of the memory system (see DESIGN.md): real
    PDE/PDPTE caches cover a vanishing fraction of a multi-hundred-GiB
    footprint, and these sizes preserve that regime for MiB-scale ones.
    """

    entries_per_level: dict[int, int] = field(default_factory=lambda: {1: 16, 2: 8, 3: 4})


@dataclass
class MmuCacheStats:
    lookups: int = 0
    #: Hits per starting level.
    hits_at_level: dict[int, int] = field(default_factory=dict)
    #: LRU victims pushed out by fills.
    evictions: int = 0

    @property
    def hits(self) -> int:
        return sum(self.hits_at_level.values())


class MmuCaches:
    """One core's paging-structure caches.

    The deepest-first probe order, each level's tag shift and each
    level's capacity are fixed by the config, so they are resolved once
    here rather than on every walk. A tag is the VA bits that selected a
    level-L table page: everything above that table's span (one table at
    level L spans ``512 * level_span(L)`` bytes).
    """

    def __init__(self, config: MmuCacheConfig | None = None):
        self.config = config or MmuCacheConfig()
        entries = self.config.entries_per_level
        self._caches: dict[int, OrderedDict[int, PageTablePage]] = {
            level: OrderedDict() for level in sorted(entries)
        }
        #: ``(level, cache, tag shift)``, deepest (smallest level) first.
        self._probe = tuple(
            (level, cache, level_shift(level) + 9) for level, cache in self._caches.items()
        )
        #: level -> ``(cache, tag shift, capacity)``.
        self._fill = {
            level: (cache, shift, entries[level]) for level, cache, shift in self._probe
        }
        self.stats = MmuCacheStats()

    def lookup(self, va: int) -> tuple[PageTablePage, int] | None:
        """Deepest cached starting point for a walk of ``va``.

        Returns ``(table_page, level)`` or ``None`` (start from CR3).
        """
        stats = self.stats
        stats.lookups += 1
        for level, cache, shift in self._probe:
            tag = va >> shift
            page = cache.get(tag)
            if page is not None:
                cache.move_to_end(tag)
                hits = stats.hits_at_level
                hits[level] = hits.get(level, 0) + 1
                return page, level
        return None

    def insert(self, va: int, page: PageTablePage) -> None:
        """Remember that ``va``-prefixed walks may start at ``page``."""
        fill = self._fill.get(page.level)
        if fill is None:
            return  # level not cached (e.g. the root in a 4-level walk)
        cache, shift, capacity = fill
        tag = va >> shift
        if tag in cache:
            cache.move_to_end(tag)
            cache[tag] = page
            return
        if len(cache) >= capacity:
            cache.popitem(last=False)
            self.stats.evictions += 1
        cache[tag] = page

    def flush(self) -> None:
        """Drop everything (context switch / shootdown)."""
        for cache in self._caches.values():
            cache.clear()

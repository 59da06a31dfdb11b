"""Property-based tests: MmuCaches against a sort-per-call reference.

``MmuCaches`` resolves its deepest-first probe order, tag shifts and
capacities once per instance. The reference model below is the simple
algorithm it replaced: sort the levels and compute each tag on every
call. Random insert/lookup/flush sequences over random configurations
must leave both with the same results, counters and per-level LRU order.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.frame import Frame, FrameKind
from repro.paging.levels import level_shift
from repro.paging.pagetable import PageTablePage
from repro.tlb.mmu_cache import MmuCacheConfig, MmuCaches


class ReferenceMmuCaches:
    """Sorts the cached levels and recomputes every tag per call."""

    def __init__(self, entries_per_level: dict[int, int]):
        self.entries_per_level = entries_per_level
        self.caches = {level: OrderedDict() for level in sorted(entries_per_level)}
        self.lookups = 0
        self.hits_at_level: dict[int, int] = {}
        self.evictions = 0

    @staticmethod
    def tag(va: int, level: int) -> int:
        return va >> (level_shift(level) + 9)

    def lookup(self, va: int):
        self.lookups += 1
        for level in sorted(self.caches):
            cache = self.caches[level]
            tag = self.tag(va, level)
            page = cache.get(tag)
            if page is not None:
                cache.move_to_end(tag)
                self.hits_at_level[level] = self.hits_at_level.get(level, 0) + 1
                return page, level
        return None

    def insert(self, va: int, page: PageTablePage) -> None:
        cache = self.caches.get(page.level)
        if cache is None:
            return
        tag = self.tag(va, page.level)
        if tag in cache:
            cache.move_to_end(tag)
            cache[tag] = page
            return
        if len(cache) >= self.entries_per_level[page.level]:
            cache.popitem(last=False)
            self.evictions += 1
        cache[tag] = page

    def flush(self) -> None:
        for cache in self.caches.values():
            cache.clear()


#: Configs over levels 1-4: most leave some level out, and level 4 (the
#: root of a 4-level walk) is never cached by the default config.
configs = st.dictionaries(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), max_size=4
)

#: VAs built from few choices per level index, so tags collide at every
#: level: same 2 MiB window, same 1 GiB region, same 512 GiB slot.
vas = st.builds(
    lambda l4, l3, l2, l1, offset: (l4 << 39) | (l3 << 30) | (l2 << 21) | (l1 << 12) | offset,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=511),
    st.integers(min_value=0, max_value=4095),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), vas, st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("lookup"), vas),
        st.tuples(st.just("flush")),
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(configs, operations)
def test_matches_sort_per_call_reference(entries_per_level, ops):
    mmu = MmuCaches(MmuCacheConfig(entries_per_level=dict(entries_per_level)))
    reference = ReferenceMmuCaches(dict(entries_per_level))
    for pfn, op in enumerate(ops):
        if op[0] == "insert":
            _, va, level = op
            page = PageTablePage(Frame(pfn=pfn, node=0, kind=FrameKind.PAGE_TABLE), level)
            mmu.insert(va, page)
            reference.insert(va, page)
        elif op[0] == "lookup":
            got = mmu.lookup(op[1])
            want = reference.lookup(op[1])
            if want is None:
                assert got is None
            else:
                assert got[0] is want[0] and got[1] == want[1]
        else:
            mmu.flush()
            reference.flush()
        assert mmu.stats.lookups == reference.lookups
        assert mmu.stats.hits_at_level == reference.hits_at_level
        assert mmu.stats.evictions == reference.evictions
        assert list(mmu._caches) == list(reference.caches)
        for level, cache in reference.caches.items():
            assert list(mmu._caches[level].items()) == list(cache.items()), level

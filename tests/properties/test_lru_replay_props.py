"""Property-based tests: the vector tier's batched LRU replay.

The batched hit runs since the last escape leave the L1 TLB through
``_replay_range``, which scans their range backwards one
``_REPLAY_BLOCK`` block at a time, stops once every resident page has a
last-access position, and promotes each touched page once, in
last-access order. These properties pin it to the reference it stands
in for (one ``Tlb.touch`` per access, in order, on the structure the
access hit) on random geometries, mixed 4 KiB/2 MiB resident sets and
ranges longer than a block; pin where the scan stops; and pin ``_ResidencyLut.slots`` and
``_Snapshot.slots`` to a dict over both LUT representations: a dense
table and, for resident sets wider than ``_LUT_SPAN_MAX``, binary
search.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paging.pagetable import Translation
from repro.sim.engine import _LUT_SPAN_MAX, _REPLAY_BLOCK, _ResidencyLut, _Snapshot, _replay_range
from repro.tlb.tlb import Tlb, TlbConfig, TlbHierarchy
from repro.units import HUGE_PAGE_SHIFT, PAGE_SHIFT

FRAMES_PER_NODE = 1000
#: Per-node data cost the snapshot's slot costs are gathered from.
DATA_COST = np.array([10.0, 25.5, 40.25, 55.0, 70.125])


@st.composite
def resident_tlb(draw):
    """A filled ``Tlb`` and its resident vpns, ascending.

    Candidate vpns are ``base + k * stride``: stride 1 keeps them inside
    one dense LUT span, while a stride past ``_LUT_SPAN_MAX`` puts any two
    of them farther apart than a dense LUT may cover. The stride is odd,
    so the pages spread over the sets of every geometry.
    """
    n_sets = draw(st.integers(1, 8))
    ways = draw(st.integers(1, 8))
    wide = draw(st.booleans())
    stride = _LUT_SPAN_MAX + 1 if wide else 1
    base = draw(st.integers(0, 1 << 30))
    ks = draw(st.lists(st.integers(0, 63), min_size=1, max_size=48, unique=True))
    tlb = Tlb(entries=n_sets * ways, ways=ways, page_shift=12)
    for k in ks:
        vpn = base + k * stride
        tlb.insert(vpn << 12, Translation(pfn=vpn % 5000, flags=1, level=1))
    resident = sorted(vpn for vpn, _ in tlb.resident_items())
    return tlb, resident, wide


@st.composite
def resident_hierarchy(draw):
    """A ``TlbHierarchy`` whose two L1 structures hold random pages, and
    one va inside each resident page.

    Either structure may be empty. Some 4 KiB pages lie inside resident
    2 MiB pages, so a va can be resident at both sizes; ``lookup`` hits
    the 4 KiB structure then, and only that one may move. With ``wide``,
    the 4 KiB pages spread past ``_LUT_SPAN_MAX`` (the sparse LUT).
    """
    config = TlbConfig(
        l1_entries=draw(st.sampled_from([4, 8, 16, 64])),
        l1_ways=draw(st.sampled_from([1, 2, 4])),
        l1_huge_entries=draw(st.sampled_from([4, 8, 32])),
        l1_huge_ways=draw(st.sampled_from([1, 2, 4])),
    )
    tlb = TlbHierarchy(config)
    base_2m = draw(st.integers(1, 1 << 20))
    huge = draw(st.lists(st.integers(0, 40), max_size=40, unique=True))
    for k in huge:
        vpn = base_2m + k
        tlb.l1_2m.insert(vpn << HUGE_PAGE_SHIFT, Translation(pfn=vpn * 512 % 4999, flags=1, level=2))
    stride = _LUT_SPAN_MAX + 1 if draw(st.booleans()) else 1
    small = draw(st.lists(st.integers(0, 80), max_size=80, unique=True))
    for k in small:
        # Even k: a page inside one of the 2 MiB candidates; odd k: far
        # from every huge page.
        if k % 2 == 0:
            vpn = (base_2m + k // 2) * 512 + k
        else:
            vpn = (1 << 40) + k * stride
        tlb.l1_4k.insert(vpn << PAGE_SHIFT, Translation(pfn=vpn % 4999, flags=1, level=1))
    vas = [vpn << PAGE_SHIFT | 0x123 for vpn, _ in tlb.l1_4k.resident_items()]
    vas += [vpn << HUGE_PAGE_SHIFT | 0x1234 for vpn, _ in tlb.l1_2m.resident_items()]
    return tlb, vas


def lut_of(tlb: Tlb) -> _ResidencyLut:
    """The snapshot LUT the engine builds over ``tlb``'s resident entries."""
    return _ResidencyLut(
        [(vpn, translation.pfn) for vpn, translation in tlb.resident_items()],
        FRAMES_PER_NODE,
    )


def set_orders(tlb: Tlb) -> list[list[int]]:
    return [list(entry_set) for entry_set in tlb._sets]


def touch_like_lookup(tlb: TlbHierarchy, va: int) -> None:
    """One hit's LRU effect: promote the structure ``lookup`` hits."""
    vpn = va >> PAGE_SHIFT
    if vpn in tlb.l1_4k._sets[vpn % tlb.l1_4k.n_sets]:
        tlb.l1_4k.touch(vpn)
    else:
        tlb.l1_2m.touch(va >> HUGE_PAGE_SHIFT)


class ScanCounter(_Snapshot):
    """A snapshot that counts the vas its ``slots`` gathers."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scanned = 0

    def slots(self, vas):
        self.scanned += vas.size
        return super().slots(vas)


@settings(max_examples=150, deadline=None)
@given(resident_hierarchy(), st.data())
def test_replay_matches_one_touch_per_access(filled, data):
    tlb, resident_vas = filled
    if not resident_vas:
        return
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    length = data.draw(st.integers(0, 4)) * _REPLAY_BLOCK + data.draw(st.integers(1, 300))
    # A resident page the range never touches forces the full backward
    # scan; otherwise one page is touched once, ``back`` blocks before
    # the range's last one, and the scan stops in that page's block.
    pool = list(resident_vas)
    untouched = len(pool) > 1 and data.draw(st.booleans())
    if untouched:
        pool.pop(data.draw(st.integers(0, len(pool) - 1)))
    rare = pool.pop(data.draw(st.integers(0, len(pool) - 1))) if len(pool) > 1 else None
    run = rng.choice(np.asarray(pool, dtype=np.int64), size=length)
    if rare is not None:
        back = data.draw(st.integers(0, 3)) * _REPLAY_BLOCK
        back += data.draw(st.integers(0, _REPLAY_BLOCK - 1))
        run[max(0, length - 1 - back)] = rare
    # The range sits between accesses it must not read: non-resident
    # pages, whose slot is -1.
    prefix = data.draw(st.integers(0, 50))
    junk = np.full(prefix, 0x7000, dtype=np.int64)
    vas = np.concatenate((junk, run, junk))
    lo, hi = prefix, prefix + length

    reference = copy.deepcopy(tlb)
    for va in run.tolist():
        touch_like_lookup(reference, va)
    stats = (replace(tlb.l1_4k.stats), replace(tlb.l1_2m.stats))

    snapshot = ScanCounter(tlb, FRAMES_PER_NODE, DATA_COST)
    _replay_range(snapshot, vas, lo, hi)
    for name in ("l1_4k", "l1_2m"):
        assert set_orders(getattr(tlb, name)) == set_orders(getattr(reference, name)), name
    assert (tlb.l1_4k.stats, tlb.l1_2m.stats) == stats
    # Where the scan stopped: the whole range when a resident page was
    # never touched, else at the start of the block holding the oldest
    # last access of any page.
    lasts = [np.flatnonzero(run == va) for va in resident_vas]
    if any(not positions.size for positions in lasts):
        assert snapshot.scanned == length
    else:
        oldest = min(int(positions[-1]) for positions in lasts)
        blocks = -(-(length - oldest) // _REPLAY_BLOCK)
        assert snapshot.scanned == min(length, blocks * _REPLAY_BLOCK)
    if untouched:
        assert snapshot.scanned == length


@settings(max_examples=150, deadline=None)
@given(resident_hierarchy(), st.lists(st.integers(0, 1 << 50), max_size=40))
def test_snapshot_slots_match_lookup_order(filled, extra):
    tlb, resident_vas = filled
    pages_4k = {vpn: t.pfn for vpn, t in tlb.l1_4k.resident_items()}
    pages_2m = {vpn: t.pfn for vpn, t in tlb.l1_2m.resident_items()}
    sorted_4k, sorted_2m = sorted(pages_4k), sorted(pages_2m)
    snapshot = _Snapshot(tlb, FRAMES_PER_NODE, DATA_COST)
    assert snapshot.token == tlb.fastpath_token()
    assert (snapshot.n4k, snapshot.size) == (len(pages_4k), len(pages_4k) + len(pages_2m))

    def expected(va):
        vpn = va >> PAGE_SHIFT
        if vpn in pages_4k:
            return sorted_4k.index(vpn), pages_4k[vpn]
        vpn = va >> HUGE_PAGE_SHIFT
        if vpn in pages_2m:
            return len(sorted_4k) + sorted_2m.index(vpn), pages_2m[vpn]
        return -1, None

    probes = resident_vas + [va + 4096 for va in resident_vas] + extra
    slots = snapshot.slots(np.asarray(probes, dtype=np.int64)).tolist()
    assert slots == [expected(va)[0] for va in probes]
    for va, slot in zip(probes, slots):
        if slot >= 0:
            assert snapshot.costs[slot] == DATA_COST[expected(va)[1] // FRAMES_PER_NODE]


@settings(max_examples=150, deadline=None)
@given(resident_tlb(), st.lists(st.integers(0, 1 << 31), max_size=40))
def test_slots_match_a_dict(filled, extra):
    tlb, resident, wide = filled
    lut = lut_of(tlb)
    # Which representation the snapshot chose: a wide set of two or more
    # pages spans past the dense limit.
    assert (lut.table is None) == (wide and len(resident) > 1)
    expected = {vpn: slot for slot, vpn in enumerate(resident)}
    lo, hi = resident[0], resident[-1]
    probes = resident + [
        max(lo - 1, 0), max(lo - 7, 0), 0,  # below the base
        hi + 1, hi + 7, hi + _LUT_SPAN_MAX,  # past the span
        (lo + hi) // 2, lo + 1, hi - 1,  # gaps inside it
    ] + extra
    slots = lut.slots(np.asarray(probes, dtype=np.int64))
    assert slots.tolist() == [expected.get(vpn, -1) for vpn in probes]
    assert lut.vpns_sorted.tolist() == resident
    nodes = {vpn: translation.pfn // FRAMES_PER_NODE for vpn, translation in tlb.resident_items()}
    assert lut.nodes_sorted.tolist() == [nodes[vpn] for vpn in resident]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1 << 40), max_size=40))
def test_empty_lut_has_no_slots(probes):
    lut = _ResidencyLut([], FRAMES_PER_NODE)
    assert lut.slots(np.asarray(probes, dtype=np.int64)).tolist() == [-1] * len(probes)

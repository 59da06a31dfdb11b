"""Property-based tests: the vector tier's batched LRU replay.

A batched run of L1 hits leaves the TLB through ``_replay_promotions``,
which promotes each unique page of the run once, in last-access order.
These properties pin it to the reference it stands in for (one
``Tlb.touch`` per access, in order) on random geometries, resident sets
and runs with repeats, and pin ``_ResidencyLut.slots`` to a dict over
both LUT representations: a dense table and, for resident sets wider than
``_LUT_SPAN_MAX``, binary search.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paging.pagetable import Translation
from repro.sim.engine import _LUT_SPAN_MAX, _ResidencyLut, _replay_promotions
from repro.tlb.tlb import Tlb

FRAMES_PER_NODE = 1000


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


def lut_of(tlb: Tlb) -> _ResidencyLut:
    """The snapshot LUT the engine builds over ``tlb``'s resident entries."""
    return _ResidencyLut(
        [(vpn, translation.pfn) for vpn, translation in tlb.resident_items()],
        FRAMES_PER_NODE,
    )


def set_orders(tlb: Tlb) -> list[list[int]]:
    return [list(entry_set.keys()) for entry_set in tlb._sets]


@settings(max_examples=150, deadline=None)
@given(resident_tlb(), st.data())
def test_replay_matches_one_touch_per_access(filled, data):
    tlb, resident, _ = filled
    run = data.draw(st.lists(st.sampled_from(resident), max_size=200))
    reference = copy.deepcopy(tlb)
    for vpn in run:
        reference.touch(vpn)

    lut = lut_of(tlb)
    stats = replace(tlb.stats)
    _replay_promotions(tlb, lut.vpns_sorted, lut.slots(np.asarray(run, dtype=np.int64)))
    assert set_orders(tlb) == set_orders(reference)
    assert tlb.stats == stats


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

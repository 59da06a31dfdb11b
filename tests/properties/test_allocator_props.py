"""Property-based tests: the frame allocator never double-allocates,
conserves capacity under arbitrary alloc/free interleavings, and its bulk
take is the same as as many single allocations."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.inject.plan import SITE_ALLOCATOR_OOM, FaultPlan, FaultRule
from repro.mem.allocator import NodeAllocator
from repro.units import PAGES_PER_HUGE_PAGE

CAPACITY = PAGES_PER_HUGE_PAGE * 4

actions = st.lists(
    st.sampled_from(["alloc", "alloc", "alloc", "free", "huge", "free_huge", "break"]),
    min_size=1,
    max_size=200,
)


@settings(max_examples=60, deadline=None)
@given(actions)
def test_no_double_allocation_and_conservation(script):
    allocator = NodeAllocator(node=0, pfn_base=1000, capacity_frames=CAPACITY)
    live_small: list[int] = []
    live_huge: list[int] = []
    pinned = 0
    for action in script:
        try:
            if action == "alloc":
                pfn = allocator.alloc_frame()
                assert pfn not in live_small
                assert all(not h <= pfn < h + PAGES_PER_HUGE_PAGE for h in live_huge)
                live_small.append(pfn)
            elif action == "free" and live_small:
                allocator.free_frame(live_small.pop())
            elif action == "huge":
                head = allocator.alloc_huge()
                assert head % PAGES_PER_HUGE_PAGE == 0
                assert not any(
                    head <= p < head + PAGES_PER_HUGE_PAGE for p in live_small
                )
                live_huge.append(head)
            elif action == "free_huge" and live_huge:
                allocator.free_huge(live_huge.pop())
            elif action == "break":
                pfn = allocator.break_huge_block()
                live_small.append(pfn)
                pinned += 1
        except OutOfMemoryError:
            pass
        used = len(live_small) + len(live_huge) * PAGES_PER_HUGE_PAGE
        assert allocator.used_frames == used
        assert 0 <= allocator.free_frames <= CAPACITY


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=CAPACITY))
def test_full_drain_restores_capacity(n):
    allocator = NodeAllocator(node=0, pfn_base=0, capacity_frames=CAPACITY)
    pfns = [allocator.alloc_frame() for _ in range(n)]
    assert len(set(pfns)) == n
    for pfn in pfns:
        allocator.free_frame(pfn)
    assert allocator.used_frames == 0
    assert allocator.free_frames == CAPACITY


def _replay(allocator: NodeAllocator, script: list[str]) -> None:
    """Drive ``allocator`` through an alloc/free/huge/break history;
    allocations that find no memory are skipped."""
    live_small: list[int] = []
    live_huge: list[int] = []
    for action in script:
        try:
            if action == "alloc":
                live_small.append(allocator.alloc_frame())
            elif action == "free" and live_small:
                allocator.free_frame(live_small.pop(len(live_small) // 2))
            elif action == "huge":
                live_huge.append(allocator.alloc_huge())
            elif action == "free_huge" and live_huge:
                allocator.free_huge(live_huge.pop())
            elif action == "break":
                live_small.append(allocator.break_huge_block())
        except OutOfMemoryError:
            pass


def _state(allocator: NodeAllocator) -> tuple:
    return (
        allocator.used_frames,
        allocator.free_frames,
        [list(entry) for entry in allocator._free_ranges],
        list(allocator._free_huge),
        allocator._bump,
    )


def _plan(spec) -> FaultPlan | None:
    """A fresh fault plan from its drawn parameters (one per side)."""
    if spec is None:
        return None
    kind, seed, value, node = spec
    if kind == "probability":
        rule = FaultRule(site=SITE_ALLOCATOR_OOM, node=node, probability=value)
    else:
        rule = FaultRule(site=SITE_ALLOCATOR_OOM, node=node, on_calls={value})
    return FaultPlan(seed=seed, rules=[rule])


plan_specs = st.one_of(
    st.none(),
    st.tuples(
        st.just("probability"),
        st.integers(0, 1000),
        st.floats(0.0, 0.05),
        st.sampled_from([None, 0, 1]),
    ),
    st.tuples(
        st.just("on_calls"),
        st.integers(0, 1000),
        st.integers(1, 600),
        st.sampled_from([None, 0, 1]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(actions, st.integers(min_value=0, max_value=CAPACITY + 8), st.booleans(), plan_specs)
def test_bulk_take_equals_single_allocations(script, count, near_empty, plan_spec):
    """``alloc_frames(count)`` returns the PFNs of ``count`` ``alloc_frame``
    calls (up to the first that raises), in order, and leaves the free
    ranges, free huge blocks, bump pointer, counts and fault plan as
    those calls leave them. ``near_empty`` asks for a count within a few
    frames of what the node has left."""
    bulk = NodeAllocator(node=0, pfn_base=1000, capacity_frames=CAPACITY)
    single = NodeAllocator(node=0, pfn_base=1000, capacity_frames=CAPACITY)
    for allocator in (bulk, single):
        _replay(allocator, script)
        allocator.fault_plan = _plan(plan_spec)
    if near_empty:
        count = max(0, single.free_frames + count % 9 - 4)
    expected = []
    for _ in range(count):
        try:
            expected.append(single.alloc_frame())
        except OutOfMemoryError:
            break
    assert bulk.alloc_frames(count) == expected
    assert _state(bulk) == _state(single)
    if plan_spec is not None:
        assert bulk.fault_plan.log == single.fault_plan.log
        assert [r.calls for r in bulk.fault_plan.rules] == [r.calls for r in single.fault_plan.rules]
    # The next frame, bulk or single, is the same on both sides.
    for allocator in (bulk, single):
        allocator.fault_plan = None
    following = [single.alloc_frame()] if single.free_frames else []
    assert bulk.alloc_frames(1) == following

"""Property: THP eligibility read from the page table agrees with the
512-page scan it replaced.

``ThpController.eligible`` decides whether a 2 MiB window is still
unmapped with one descent of the primary tree (an absent L2 entry, or a
leaf table without a present entry) and probes the swapped pages only
when the process has some. The scan over every page of the window in
``mm.frames`` and ``mm.swapped`` is kept here as the oracle. After every
step of a random history (populate with THP on or off, single faults,
fragmentation that forces fallbacks and its release, munmap of 4 KiB
ranges and of whole windows, swap-out and swap-in, an arena that ends
mid-window) every window gives the same answer from both rules, under
its own VMA and under a VMA covering exactly the window, and
``validate_mm`` passes. It runs on the native, eager Mitosis and lazy
Mitosis backends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidMappingError, SegmentationFault
from repro.kernel.debug import validate_mm
from repro.kernel.kernel import Kernel
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.kernel.vma import Vma
from repro.machine.topology import Machine
from repro.mem.allocator import HUGE_ORDER
from repro.mem.fragmentation import FragmentationInjector
from repro.mitosis.lazy import LazyMitosisPagingOps, make_lazy
from repro.units import HUGE_PAGE_SIZE, MIB, PAGE_SIZE

W = HUGE_PAGE_SIZE // PAGE_SIZE  # pages per 2 MiB window
#: 2 MiB-aligned arena base; the arena ends halfway through window 3.
ARENA = 1 << 30
ARENA_PAGES = 3 * W + W // 2
WINDOWS = 4


def scan_rule(mm, vma, va) -> bool:
    """The eligibility rule before the descent: a probe of every page of
    the window in the frame and swap records."""
    if not vma.use_huge:
        return False
    window = va & ~(HUGE_PAGE_SIZE - 1)
    if window < vma.start or window + HUGE_PAGE_SIZE > vma.end:
        return False
    for page in range(window, window + HUGE_PAGE_SIZE, PAGE_SIZE):
        if page in mm.frames or page in mm.swapped:
            return False
    return True


def build(backend: str):
    machine = Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=24 * MIB)
    kernel = Kernel(
        machine, sysctl=Sysctl(thp_enabled=True, mitosis_mode=MitosisMode.PER_PROCESS)
    )
    process = kernel.create_process("p", socket=0)
    if backend != "native":
        kernel.mitosis.replicate_on_all_sockets(process)
        if backend == "lazy":
            # Home socket 0 holds the primaries, so the primary tree that
            # software walks read is written at once; replicas queue.
            make_lazy(process.mm.tree, kernel.pagecache)
    kernel.sys_mmap(process, ARENA_PAGES * PAGE_SIZE, fixed_va=ARENA, name="arena")
    return kernel, process


#: A few pages per window (its edges and middle), so that steps meet the
#: same pages: a window whose one page is swapped out, a munmap that
#: empties a window, a populate that resumes past a 2 MiB page.
pages = st.sampled_from(
    [
        page
        for window in range(WINDOWS)
        for page in (window * W + offset for offset in (0, 1, 2, 255, W - 2, W - 1))
        if page < ARENA_PAGES
    ]
)
sockets = st.integers(min_value=0, max_value=1)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("populate"),
            pages,
            st.sampled_from([1, 2, 16, W, 2 * W]),
            st.booleans(),
            sockets,
        ),
        st.tuples(st.just("touch"), pages, st.booleans(), sockets),
        st.tuples(st.sampled_from(["fragment", "defragment"])),
        st.tuples(st.just("munmap"), pages, st.sampled_from([1, 2, 64, W])),
        st.tuples(st.just("remap_window"), st.integers(min_value=0, max_value=WINDOWS - 1)),
        st.tuples(st.just("swap_out"), pages),
        st.tuples(st.just("swap_in"), pages, sockets),
    ),
    min_size=1,
    max_size=14,
)


def apply_step(kernel, process, injector, step) -> None:
    mm = process.mm
    handler = kernel.fault_handler
    op = step[0]
    if op == "populate":
        _, page, count, thp, socket = step
        start = ARENA + page * PAGE_SIZE
        end = min(start + count * PAGE_SIZE, ARENA + ARENA_PAGES * PAGE_SIZE)
        try:
            handler.populate(process, start, end, socket, allow_huge=thp)
        except SegmentationFault:
            pass  # a hole munmap left; the pages before it stay mapped
    elif op == "touch":
        _, page, thp, socket = step
        try:
            handler.handle(process, ARENA + page * PAGE_SIZE, socket, is_write=True, allow_huge=thp)
        except SegmentationFault:
            pass
    elif op == "fragment":
        injector.fragment_machine(1.0)  # every free 2 MiB block: THP faults fall back
    elif op == "defragment":
        injector.release()
    elif op == "munmap":
        _, page, count = step
        count = min(count, ARENA_PAGES - page)
        try:
            kernel.sys_munmap(process, ARENA + page * PAGE_SIZE, count * PAGE_SIZE)
        except InvalidMappingError:
            pass  # part of a 2 MiB page, or nothing mapped there
    elif op == "remap_window":
        _, window = step
        start = ARENA + window * HUGE_PAGE_SIZE
        end = min(start + HUGE_PAGE_SIZE, ARENA + ARENA_PAGES * PAGE_SIZE)
        if mm.vmas.in_range(start, end):
            kernel.sys_munmap(process, start, end - start)
        kernel.sys_mmap(process, end - start, fixed_va=start, name="window")
    elif op == "swap_out":
        # Fault the page in as 4 KiB first if nothing maps it, so that
        # windows whose only page is swapped out come up often.
        va = ARENA + step[1] * PAGE_SIZE
        if mm.frame_at(va) is None and va not in mm.swapped and mm.vmas.find(va) is not None:
            handler.handle(process, va, 0, is_write=True, allow_huge=False)
        frame = mm.frames.get(va)
        if frame is not None and frame.order != HUGE_ORDER:
            kernel.swap.swap_out(process, va)
    elif op == "swap_in":
        _, page, socket = step
        va = ARENA + page * PAGE_SIZE
        if va in mm.swapped:
            assert handler.handle(process, va, socket, is_write=True).major


def check_windows(kernel, process) -> None:
    mm = process.mm
    eligible = kernel.thp.eligible
    for window in range(WINDOWS):
        base = ARENA + window * HUGE_PAGE_SIZE
        whole = Vma(start=base, end=base + HUGE_PAGE_SIZE)
        for va in (base, base + HUGE_PAGE_SIZE - PAGE_SIZE):
            own = mm.vmas.find(va)
            for vma in (whole,) if own is None else (whole, own):
                assert eligible(mm, vma, va) == scan_rule(mm, vma, va), (window, vma)


@pytest.mark.parametrize("backend", ["native", "mitosis", "lazy"])
@settings(max_examples=25, deadline=None)
@given(script=steps)
def test_descent_matches_the_page_scan(backend, script):
    kernel, process = build(backend)
    injector = FragmentationInjector(kernel.physmem)
    check_windows(kernel, process)
    for step in script:
        apply_step(kernel, process, injector, step)
        check_windows(kernel, process)
        tree = process.mm.tree
        if isinstance(tree.ops, LazyMitosisPagingOps):
            for socket in list(tree.ops.queues):
                tree.ops.sync_socket(tree, socket)
        validate_mm(kernel, process)

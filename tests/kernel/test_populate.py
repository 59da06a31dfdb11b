"""Range population: ``PageFaultHandler.populate`` against the per-page loop.

``populate`` descends to each leaf table once and writes its run of fresh
PTEs in one PV-Ops call. Its contract is that nothing observable changes
against one ``handle(is_write=True)`` per page: frames and their PFNs,
every table (replicas included), the backend, fault, THP and swap
counters, the pages zeroed, and the state an OOM leaves behind. The old
loop is kept here as the oracle, and every case runs both on identical
kernels.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import OutOfMemoryError, ProtectionFault
from repro.inject.plan import SITE_ALLOCATOR_OOM, FaultPlan, FaultRule, install_fault_plan
from repro.kernel.costs import WorkCounters
from repro.kernel.kernel import Kernel
from repro.kernel.policy import FirstTouchPolicy, FixedNodePolicy, InterleavePolicy
from repro.mem.allocator import NodeAllocator
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.lint.sanitizer import PTESanitizer
from repro.machine.topology import Machine
from repro.mem.allocator import HUGE_ORDER
from repro.mem.fragmentation import FragmentationInjector
from repro.paging.pte import PTE_USER
from repro.units import HUGE_PAGE_SIZE, MIB, PAGE_SIZE

PAGES_PER_WINDOW = HUGE_PAGE_SIZE // PAGE_SIZE
#: The arena's base: 2 MiB-aligned, so page 512 * k starts window k.
ARENA = 1 << 30


def oracle_populate(handler, process, start, end, socket, allow_huge) -> WorkCounters:
    """The per-page loop ``populate`` replaced."""
    work = WorkCounters()
    pos = start
    while pos < end:
        result = handler.handle(process, pos, socket, is_write=True, allow_huge=allow_huge)
        if result.did_map:
            work.pages_zeroed_4k += result.work.pages_zeroed_4k
            work.pages_zeroed_2m += result.work.pages_zeroed_2m
        pos += result.mapped_bytes if result.did_map else PAGE_SIZE
    return work


def new_populate(handler, process, start, end, socket, allow_huge) -> WorkCounters:
    return handler.populate(process, start, end, socket, allow_huge)


def data_policy_for(policy: str, machine: Machine):
    """The process' data policy; ``fixed`` places on node 2."""
    if policy == "interleave":
        return InterleavePolicy(machine.node_ids())
    if policy == "fixed":
        return FixedNodePolicy(2)
    return None


def build(backend="native", thp="off", policy="first-touch", memory_mib=32, prepare=True):
    """A 4-socket kernel with one 8 MiB arena (four 2 MiB windows).

    ``prepare`` pre-maps pages 3, 4 and 1500 from socket 2 and swaps 4 and
    1500 out, and faults page 1600 with THP allowed (a 2 MiB page in
    window 3 when THP is on). Windows 1 and 3 start otherwise empty.
    """
    machine = Machine.homogeneous(4, cores_per_socket=1, memory_per_socket=memory_mib * MIB)
    kernel = Kernel(
        machine, sysctl=Sysctl(thp_enabled=thp != "off", mitosis_mode=MitosisMode.PER_PROCESS)
    )
    if thp == "fragmented":
        FragmentationInjector(kernel.physmem).fragment_machine(1.0)
    process = kernel.create_process("p", socket=1, data_policy=data_policy_for(policy, machine))
    if backend == "mitosis":
        kernel.mitosis.replicate_on_all_sockets(process)
    va = kernel.sys_mmap(process, 8 * MIB, fixed_va=ARENA, name="arena").value
    if prepare:
        handler = kernel.fault_handler
        for page in (3, 4, 1500):
            handler.handle(process, va + page * PAGE_SIZE, 2, is_write=True, allow_huge=False)
        for page in (4, 1500):
            kernel.swap.swap_out(process, va + page * PAGE_SIZE)
        handler.handle(process, va + 1600 * PAGE_SIZE, 2, is_write=True, allow_huge=thp != "off")
    return kernel, process, va


def snapshot(kernel, process, work, error) -> dict:
    mm = process.mm
    registry = mm.tree.registry
    return {
        "error": error,
        "work": work,
        "frames": [(va, m.pfn, m.node, m.order == HUGE_ORDER) for va, m in mm.frames.items()],
        "swapped": sorted(mm.swapped),
        "tables": [
            (
                page.pfn,
                page.node,
                page.level,
                list(page.entries),
                page.valid_count,
                None if page.primary is None else page.primary.pfn,
                page.frame.replica_next,
            )
            for page in sorted(registry.values(), key=lambda p: p.pfn)
        ],
        "ops": mm.tree.ops.stats,
        "faults": kernel.fault_handler.faults_handled,
        # Where the placement cursor stands: the policy is asked once per
        # attempted page, the page an OOM stopped at included.
        "next_node": [mm.data_policy.choose_node(socket) for socket in kernel.machine.node_ids()],
        "thp": kernel.thp.stats,
        "swap": kernel.swap.stats,
        "memory": [kernel.physmem.stats(n) for n in kernel.machine.node_ids()],
        "plan": None
        if kernel.fault_plan is None
        else (kernel.fault_plan.log, [r.calls for r in kernel.fault_plan.rules]),
    }


def run(populate, ranges, plan=None, holes=(), **config) -> dict:
    """Build a kernel, then populate each ``(first page, end page, socket)``
    range of the arena; stops at the first OOM. With ``holes``, each
    ``(first page, end page)`` hole is then unmapped (its frames go back
    to the allocators' free ranges), mapped again empty, and the ranges
    are populated a second time."""
    kernel, process, va = build(**config)
    if plan is not None:
        install_fault_plan(kernel, plan())
    allow_huge = kernel.sysctl.thp_enabled
    work, error = WorkCounters(), None
    try:
        for sweep in range(2 if holes else 1):
            for first, end in holes if sweep else ():
                start, length = va + first * PAGE_SIZE, (end - first) * PAGE_SIZE
                kernel.sys_munmap(process, start, length)
                kernel.sys_mmap(process, length, fixed_va=start)
            for first, end, socket in ranges:
                done = populate(
                    kernel.fault_handler,
                    process,
                    va + first * PAGE_SIZE,
                    va + end * PAGE_SIZE,
                    socket,
                    allow_huge,
                )
                work.pages_zeroed_4k += done.pages_zeroed_4k
                work.pages_zeroed_2m += done.pages_zeroed_2m
    except OutOfMemoryError as exc:
        error = str(exc)
    return snapshot(kernel, process, work, error)


#: A thread's partition starting mid-window, then the edge-fill sweep over
#: the whole arena (``repro.sim.scenario._populate``'s shape).
RANGES = [(520, 2045, 0), (0, 4 * PAGES_PER_WINDOW, 3)]


@pytest.mark.parametrize("policy", ["first-touch", "interleave", "fixed"])
@pytest.mark.parametrize("thp", ["off", "on", "fragmented"])
@pytest.mark.parametrize("backend", ["native", "mitosis"])
def test_populate_matches_per_page_loop(backend, thp, policy):
    config = dict(backend=backend, thp=thp, policy=policy)
    expected = run(oracle_populate, RANGES, **config)
    assert run(new_populate, RANGES, **config) == expected
    assert expected["error"] is None
    assert len(expected["frames"]) > 1000


#: Holes in every window, one of them a whole window, and the swapped page 1500.
HOLES = [(100, 300), (520, 1100), (1500, 1501), (2040, 2048)]


@pytest.mark.parametrize("policy", ["first-touch", "interleave", "fixed"])
@pytest.mark.parametrize("backend", ["native", "mitosis"])
def test_populate_over_munmapped_ranges_matches(backend, policy):
    """Frames freed by munmap are taken again from the free ranges, the
    last one first, as the per-page loop takes them."""
    config = dict(backend=backend, policy=policy)
    expected = run(oracle_populate, RANGES, holes=HOLES, **config)
    assert run(new_populate, RANGES, holes=HOLES, **config) == expected
    assert expected["error"] is None
    assert len(expected["frames"]) == 4 * PAGES_PER_WINDOW


@pytest.mark.parametrize("backend", ["native", "mitosis"])
def test_thp_quirk_resumes_one_huge_page_past_the_fault(backend):
    """A huge page faulted mid-window moves the scan 2 MiB past the fault,
    as the per-page loop did; the skipped head of the next window stays
    unmapped until a later sweep."""
    ranges = [(520, 2045, 0)]
    expected = run(oracle_populate, ranges, backend=backend, thp="on")
    assert run(new_populate, ranges, backend=backend, thp="on") == expected
    mapped = {va for va, *_ in expected["frames"]}
    assert ARENA + PAGES_PER_WINDOW * PAGE_SIZE in mapped  # window 1: huge
    assert ARENA + 1024 * PAGE_SIZE not in mapped  # window 2 head: skipped
    assert ARENA + 1032 * PAGE_SIZE in mapped


def mid_run_oom() -> FaultPlan:
    """Four consecutive failed strict allocations exhaust one page's whole
    fallback order, in the middle of a leaf run."""
    return FaultPlan(seed=3, rules=[FaultRule(site=SITE_ALLOCATOR_OOM, on_calls={90, 91, 92, 93})])


def probabilistic_oom() -> FaultPlan:
    return FaultPlan(seed=11, rules=[FaultRule(site=SITE_ALLOCATOR_OOM, probability=0.35)])


def page_table_oom() -> FaultPlan:
    """The first page-table refill fails: the descent for window 1's leaf
    table, after its first data frame was allocated."""
    plan = FaultPlan(seed=5)
    plan.pagecache_oom(on_calls={1})
    return plan


@pytest.mark.parametrize("backend", ["native", "mitosis"])
def test_injected_oom_mid_run_leaves_per_page_state(backend):
    expected = run(oracle_populate, RANGES, plan=mid_run_oom, backend=backend)
    assert run(new_populate, RANGES, plan=mid_run_oom, backend=backend) == expected
    assert expected["error"] is not None
    assert expected["plan"][0], "the plan never fired"


@pytest.mark.parametrize("backend", ["native", "mitosis"])
def test_seeded_probabilistic_oom_matches(backend):
    plan = probabilistic_oom
    expected = run(oracle_populate, RANGES, plan=plan, backend=backend, thp="on")
    assert run(new_populate, RANGES, plan=plan, backend=backend, thp="on") == expected
    assert expected["error"] is not None
    assert len(expected["frames"]) > 5  # it failed mid-run, not up front


@pytest.mark.parametrize("backend", ["native", "mitosis"])
def test_page_table_oom_matches(backend):
    expected = run(oracle_populate, RANGES, plan=page_table_oom, backend=backend)
    assert run(new_populate, RANGES, plan=page_table_oom, backend=backend) == expected
    assert expected["error"] is not None


@pytest.mark.parametrize("backend", ["native", "mitosis"])
@pytest.mark.parametrize(
    "plan, thp",
    [(mid_run_oom, "off"), (probabilistic_oom, "on"), (page_table_oom, "off")],
    ids=["mid-run", "probabilistic", "page-table"],
)
def test_injected_oom_under_interleave(plan, thp, backend):
    """The injected OOMs again, with the interleave cursor in the snapshot:
    a run that asked the policy for pages past the failing one would
    leave it elsewhere."""
    config = dict(backend=backend, thp=thp, policy="interleave")
    expected = run(oracle_populate, RANGES, plan=plan, **config)
    assert run(new_populate, RANGES, plan=plan, **config) == expected
    assert expected["error"] is not None


def test_real_oom_matches():
    """Memory runs out for real: 4 x 1 MiB cannot hold the 8 MiB arena."""
    ranges = [(0, 4 * PAGES_PER_WINDOW, 0)]
    config = dict(memory_mib=1, prepare=False)
    expected = run(oracle_populate, ranges, **config)
    assert run(new_populate, ranges, **config) == expected
    assert expected["error"] is not None


def test_populate_under_pte_sanitizer():
    config = dict(backend="mitosis", thp="fragmented", policy="interleave")
    expected = run(oracle_populate, RANGES, **config)
    with PTESanitizer() as sanitizer:
        got = run(new_populate, RANGES, **config)
    assert got == expected
    assert sanitizer.writes_checked > 0
    assert sanitizer.violations == 0


class TestPopulateSemantics:
    def test_one_lock_and_one_descent_per_leaf_table(self):
        kernel, process, va = build(prepare=False)
        mm = process.mm
        before = mm.lock.acquisitions
        kernel.fault_handler.populate(process, va, va + 8 * MIB, 0, allow_huge=False)
        assert mm.lock.acquisitions - before == 4
        assert kernel.fault_handler.faults_handled == 4 * PAGES_PER_WINDOW

    def test_fresh_run_is_one_allocator_call_and_one_policy_call(self, monkeypatch):
        """A first-touch run of fresh pages after a mapped one (so the scan
        holds the leaf table) takes its placement from one policy call and
        its frames from one node-allocator call."""
        kernel, process, va = build(prepare=False)
        handler = kernel.fault_handler
        handler.handle(process, va, 0, is_write=True, allow_huge=False)
        calls = Counter()

        def spy(cls, name):
            original = getattr(cls, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        for name in ("alloc_frame", "alloc_frames", "alloc_huge"):
            spy(NodeAllocator, name)
        for name in ("choose_node", "choose_run"):
            spy(FirstTouchPolicy, name)
        handler.populate(process, va, va + HUGE_PAGE_SIZE, 0, allow_huge=False)
        assert calls == {"alloc_frames": 1, "choose_run": 1}
        assert len(process.mm.frames) == PAGES_PER_WINDOW

    def test_readonly_mapped_page_raises_after_mapping_earlier_pages(self):
        kernel, process, _ = build(prepare=False)
        va = kernel.sys_mmap(process, 8 * PAGE_SIZE, prot=PTE_USER).value
        handler = kernel.fault_handler
        handler.handle(process, va + 5 * PAGE_SIZE, 0, is_write=False)
        with pytest.raises(ProtectionFault):
            handler.populate(process, va, va + 8 * PAGE_SIZE, 0)
        assert sorted(process.mm.frames) == [va + i * PAGE_SIZE for i in range(6)]
        assert process.mm.tree.translate(va + 4 * PAGE_SIZE) is not None

    def test_unaligned_start_rejected(self):
        kernel, process, va = build(prepare=False)
        with pytest.raises(ValueError):
            kernel.fault_handler.populate(process, va + 1, va + PAGE_SIZE, 0)

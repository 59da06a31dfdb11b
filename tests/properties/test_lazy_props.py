"""Property: lazy propagation, once drained, is observationally identical
to eager propagation for ANY operation sequence."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.policy import FixedNodePolicy
from repro.kernel.pvops import NativePagingOps
from repro.machine.topology import Machine
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.mitosis.lazy import make_lazy
from repro.mitosis.replication import enable_replication
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_AD_BITS, PTE_USER, PTE_WRITABLE
from repro.paging.walker import HardwareWalker
from repro.units import MIB, PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER
N_SOCKETS = 2
MASK = frozenset(range(N_SOCKETS))

vpns = st.integers(min_value=0, max_value=1 << 20)
ops = st.lists(
    st.tuples(st.sampled_from(["map", "unmap", "protect_ro", "protect_rw"]), vpns),
    min_size=1,
    max_size=50,
)


def build(lazy: bool):
    physmem = PhysicalMemory(
        Machine.homogeneous(N_SOCKETS, cores_per_socket=1, memory_per_socket=64 * MIB)
    )
    cache = PageTablePageCache(physmem)
    tree = PageTableTree(NativePagingOps(cache, pt_policy=FixedNodePolicy(0)))
    enable_replication(tree, cache, MASK)
    if lazy:
        lazy_ops = make_lazy(tree, cache)
        lazy_ops.home_socket = 0
    return physmem, tree


def apply_ops(physmem, tree, operations):
    mapping: dict[int, int] = {}
    pfn_pool = iter(range(10**6))
    for op, vpn in operations:
        va = vpn * PAGE_SIZE
        if op == "map" and vpn not in mapping:
            frame = physmem.alloc_frame(vpn % N_SOCKETS)
            tree.map_page(va, frame.pfn, FLAGS)
            mapping[vpn] = frame.pfn
        elif op == "unmap" and vpn in mapping:
            tree.unmap_page(va)
            del mapping[vpn]
        elif op == "protect_ro" and vpn in mapping:
            tree.protect_range(va, va + PAGE_SIZE, PTE_USER)
        elif op == "protect_rw" and vpn in mapping:
            tree.protect_range(va, va + PAGE_SIZE, FLAGS)
    return mapping


@settings(max_examples=30, deadline=None)
@given(ops)
def test_drained_lazy_equals_eager(operations):
    physmem_e, eager = build(lazy=False)
    mapping = apply_ops(physmem_e, eager, operations)
    physmem_l, lazy = build(lazy=True)
    apply_ops(physmem_l, lazy, operations)
    for socket in range(N_SOCKETS):
        lazy.ops.sync_socket(lazy, socket)

    # Same leaf state on every socket: walk both trees everywhere.
    touched = sorted({vpn for _, vpn in operations})
    walker_e = HardwareWalker(eager)
    walker_l = HardwareWalker(lazy)
    for vpn in touched:
        va = vpn * PAGE_SIZE
        for socket in range(N_SOCKETS):
            a = walker_e.walk(va, socket, set_ad_bits=False)
            b = walker_l.walk(va, socket, set_ad_bits=False)
            assert a.faulted == b.faulted, (vpn, socket)
            if not a.faulted:
                # PFNs differ between the two machines (independent
                # allocators); compare flags and locality instead.
                assert (a.translation.flags & ~PTE_AD_BITS) == (
                    b.translation.flags & ~PTE_AD_BITS
                )
                assert all(acc.node == socket for acc in b.accesses)
    assert dict(eager.iter_mappings()).keys() == dict(lazy.iter_mappings()).keys()


@settings(max_examples=30, deadline=None)
@given(ops, st.integers(min_value=0, max_value=N_SOCKETS - 1))
def test_undrained_lazy_never_grants_stale_rights(operations, socket):
    """Even before draining, a lazy replica must never let a socket use a
    mapping/permission the eager semantics revoked (it may only *lack*
    state, never hold stale rights)."""
    physmem_e, eager = build(lazy=False)
    mapping = apply_ops(physmem_e, eager, operations)
    physmem_l, lazy = build(lazy=True)
    apply_ops(physmem_l, lazy, operations)

    walker = HardwareWalker(lazy)
    eager_walker = HardwareWalker(eager)
    for vpn in {v for _, v in operations}:
        va = vpn * PAGE_SIZE
        lazy_result = walker.walk(va, socket, set_ad_bits=False)
        eager_result = eager_walker.walk(va, socket, set_ad_bits=False)
        if eager_result.faulted:
            assert lazy_result.faulted  # unmaps are eager: nothing stale
        elif not lazy_result.faulted:
            lazy_flags = lazy_result.translation.flags & ~PTE_AD_BITS
            eager_flags = eager_result.translation.flags & ~PTE_AD_BITS
            # Writable-without-permission would be a security hole.
            assert (lazy_flags & PTE_WRITABLE) <= (eager_flags & PTE_WRITABLE)

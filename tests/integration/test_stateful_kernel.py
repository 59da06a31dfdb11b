"""Stateful fuzzing of the whole kernel + Mitosis surface.

Hypothesis drives random interleavings of mmap / munmap / mprotect /
process migration / replication-mask changes / page-table migration /
replica shrinking against a reference model, checking after every step:

* translations match the model exactly (for every replica, from every
  socket);
* physical frames are conserved (no leaks, no double use);
* replica rings are well-formed;
* tearing everything down returns the machine to pristine.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st

from repro.errors import InvalidMappingError, OutOfMemoryError
from repro.kernel.kernel import Kernel
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine
from repro.mitosis.replication import replica_sockets
from repro.mitosis.ring import ring_members
from repro.paging.pte import PTE_USER, PTE_WRITABLE
from repro.paging.walker import HardwareWalker
from repro.units import MIB, PAGE_SIZE

N_SOCKETS = 2
REGION_PAGES = 8


class KernelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        machine = Machine.homogeneous(
            N_SOCKETS, cores_per_socket=1, memory_per_socket=16 * MIB
        )
        self.kernel = Kernel(machine, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS))
        self.process = self.kernel.create_process("fuzz", socket=0)
        #: reference model: page-aligned va -> True (mapped)
        self.model: dict[int, bool] = {}
        self.next_slot = 1

    # -- operations --------------------------------------------------------------

    @rule(pages=st.integers(min_value=1, max_value=REGION_PAGES))
    def mmap(self, pages):
        try:
            va = self.kernel.sys_mmap(
                self.process, pages * PAGE_SIZE, populate=True, use_huge=False
            ).value
        except OutOfMemoryError:
            return
        for i in range(pages):
            self.model[va + i * PAGE_SIZE] = True

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def munmap_one(self, data):
        va = data.draw(st.sampled_from(sorted(self.model)))
        self.kernel.sys_munmap(self.process, va, PAGE_SIZE)
        del self.model[va]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), writable=st.booleans())
    def mprotect_one(self, data, writable):
        va = data.draw(st.sampled_from(sorted(self.model)))
        prot = (PTE_WRITABLE | PTE_USER) if writable else PTE_USER
        self.kernel.sys_mprotect(self.process, va, PAGE_SIZE, prot)

    @rule(target_socket=st.integers(min_value=0, max_value=N_SOCKETS - 1))
    def migrate_process(self, target_socket):
        try:
            self.kernel.sys_migrate_process(self.process, target_socket)
        except OutOfMemoryError:
            return

    @rule(mask=st.sets(st.integers(min_value=0, max_value=N_SOCKETS - 1)))
    def set_replication_mask(self, mask):
        try:
            self.kernel.mitosis.set_replication_mask(self.process, frozenset(mask) or None)
        except OutOfMemoryError:
            return

    @precondition(lambda self: self.process.mm.replicated)
    @rule(destination=st.integers(min_value=0, max_value=N_SOCKETS - 1))
    def migrate_pagetables(self, destination):
        from repro.mitosis.migration import migrate_page_tables

        try:
            migrate_page_tables(self.kernel, self.process, destination)
        except OutOfMemoryError:
            return

    @precondition(lambda self: self.process.mm.replicated)
    @rule(socket=st.integers(min_value=0, max_value=N_SOCKETS - 1))
    def shrink(self, socket):
        from repro.mitosis.replication import shrink_replication

        tree = self.process.mm.tree
        shrink_replication(tree, self.kernel.pagecache, frozenset({socket}))
        remaining = replica_sockets(tree)
        self.process.mm.replication_mask = remaining if len(remaining) > 1 else None

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def translations_match_model(self):
        tree = self.process.mm.tree
        walker = HardwareWalker(tree)
        for va in self.model:
            for socket in range(N_SOCKETS):
                result = walker.walk(va, socket, set_ad_bits=False)
                assert result.translation is not None, f"0x{va:x} lost (socket {socket})"
        mapped = {va for va, _ in tree.iter_mappings()}
        assert mapped == set(self.model)

    @invariant()
    def rings_are_well_formed(self):
        tree = self.process.mm.tree
        seen: set[int] = set()
        for page in tree.iter_tables():
            members = ring_members(tree, page)
            nodes = [m.node for m in members]
            assert len(nodes) == len(set(nodes)), "duplicate socket in ring"
            for member in members:
                assert member.pfn not in seen or member.pfn == page.pfn
            seen.update(m.pfn for m in members)
        assert seen == set(tree.registry), "registry / ring mismatch"

    @invariant()
    def full_mm_validation(self):
        from repro.kernel.debug import validate_mm

        validate_mm(self.kernel, self.process)

    @invariant()
    def frame_accounting_consistent(self):
        physmem = self.kernel.physmem
        pt_bytes = physmem.page_table_bytes()
        live_tables = self.process.mm.tree.total_table_count()
        pooled = sum(self.kernel.pagecache.pooled(n) for n in range(N_SOCKETS))
        assert pt_bytes == (live_tables + pooled) * PAGE_SIZE

    def teardown(self):
        self.kernel.destroy_process(self.process)
        for node in range(N_SOCKETS):
            self.kernel.pagecache.drain(node)
            assert self.kernel.physmem.stats(node).used_frames == 0, "frame leak"


KernelFuzz = KernelMachine.TestCase
KernelFuzz.settings = settings(max_examples=25, stateful_step_count=30, deadline=None)

"""Kernel facade: process lifecycle, sysctl modes, CR3 selection."""

import gc
import weakref

import pytest

from repro.kernel.kernel import Kernel
from repro.kernel.policy import FixedNodePolicy
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.units import MIB, PAGE_SIZE


class TestProcessLifecycle:
    def test_create_assigns_pid_and_thread(self, kernel2):
        a = kernel2.create_process("a", socket=0)
        b = kernel2.create_process("b", socket=1)
        assert a.pid != b.pid
        assert a.home_socket == 0
        assert b.home_socket == 1
        assert kernel2.processes[a.pid] is a

    def test_each_process_gets_own_ops(self, kernel2):
        a = kernel2.create_process("a", socket=0)
        b = kernel2.create_process("b", socket=0)
        assert a.mm.tree.ops is not b.mm.tree.ops

    def test_destroy_frees_all_memory(self, kernel2):
        process = kernel2.create_process("t", socket=0)
        kernel2.sys_mmap(process, MIB, populate=True)
        kernel2.destroy_process(process)
        assert process.pid not in kernel2.processes
        assert kernel2.physmem.stats(0).used_frames == 0
        assert kernel2.physmem.page_table_bytes() == 0

    def test_destroy_replicated_process_frees_replicas(self, kernel2):
        process = kernel2.create_process("t", socket=0)
        kernel2.sys_mmap(process, MIB, populate=True)
        kernel2.mitosis.set_replication_mask(process, frozenset({0, 1}))
        kernel2.destroy_process(process)
        assert kernel2.physmem.page_table_bytes() == 0

    def test_touch_faults_one_page(self, kernel2):
        process = kernel2.create_process("t", socket=0)
        va = kernel2.sys_mmap(process, PAGE_SIZE).value
        result = kernel2.touch(process, va)
        assert result.did_map


class TestSysctlModes:
    def test_fixed_socket_mode_forces_pt_placement(self, machine2):
        sysctl = Sysctl(mitosis_mode=MitosisMode.FIXED_SOCKET, mitosis_fixed_socket=1)
        kernel = Kernel(machine2, sysctl=sysctl)
        process = kernel.create_process("t", socket=0)
        kernel.sys_mmap(process, MIB, populate=True)
        assert all(page.node == 1 for page in process.mm.tree.iter_tables())

    def test_explicit_pt_policy_beats_fixed_socket_mode(self, machine2):
        sysctl = Sysctl(mitosis_mode=MitosisMode.FIXED_SOCKET, mitosis_fixed_socket=1)
        kernel = Kernel(machine2, sysctl=sysctl)
        process = kernel.create_process("t", socket=0, pt_policy=FixedNodePolicy(0))
        kernel.sys_mmap(process, MIB, populate=True)
        assert all(page.node == 0 for page in process.mm.tree.iter_tables())

    def test_all_mode_replicates_at_creation(self, machine2):
        sysctl = Sysctl(mitosis_mode=MitosisMode.ALL)
        kernel = Kernel(machine2, sysctl=sysctl)
        process = kernel.create_process("t", socket=0)
        assert process.mm.replication_mask == frozenset({0, 1})

    def test_pagecache_sysctl_applied(self, machine2):
        kernel = Kernel(machine2, sysctl=Sysctl(pt_pagecache_frames=8))
        assert kernel.pagecache.pooled(0) == 8


class TestContextSwitch:
    def test_native_cr3_is_same_everywhere(self, kernel2):
        process = kernel2.create_process("t", socket=0)
        cr3_0 = kernel2.scheduler.context_switch(process, 0)
        cr3_1 = kernel2.scheduler.context_switch(process, 1)
        assert cr3_0 == cr3_1 == process.mm.tree.root.pfn

    def test_replicated_cr3_is_local(self, kernel2):
        process = kernel2.create_process("t", socket=0)
        kernel2.sys_mmap(process, MIB, populate=True)
        kernel2.mitosis.set_replication_mask(process, frozenset({0, 1}))
        cr3_0 = kernel2.scheduler.context_switch(process, 0)
        cr3_1 = kernel2.scheduler.context_switch(process, 1)
        assert cr3_0 != cr3_1
        assert kernel2.physmem.node_of_pfn(cr3_0) == 0
        assert kernel2.physmem.node_of_pfn(cr3_1) == 1

    def test_context_switches_counted(self, kernel2):
        process = kernel2.create_process("t", socket=0)
        kernel2.scheduler.context_switch(process, 0)
        kernel2.scheduler.context_switch(process, 1)
        assert kernel2.scheduler.stats.context_switches == 2


class TestMmLock:
    def test_mutations_happen_under_lock(self, kernel2):
        """§7.5: every page-table mutation runs in the critical section."""
        process = kernel2.create_process("t", socket=0)
        before = process.mm.lock.acquisitions
        kernel2.sys_mmap(process, 4 * PAGE_SIZE, populate=True)
        assert process.mm.lock.acquisitions > before
        assert not process.mm.lock.held


class TestDroppedKernel:
    def test_freed_at_del_without_the_cyclic_collector(self, machine2):
        """Neither the swap manager nor the Mitosis manager keeps its
        kernel alive, so dropping a kernel frees its frames, records and
        tables at once, not at the next generation-2 collection."""
        gc.collect()
        gc.disable()
        try:
            kernel = Kernel(machine2, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS))
            process = kernel.create_process("p", socket=0)
            va = kernel.sys_mmap(process, 16 * PAGE_SIZE, populate=True).value
            kernel.swap.swap_out(process, va)
            kernel.touch(process, va, is_write=True)  # swap-in
            kernel.mitosis.set_replication_mask(process, frozenset({0, 1}))
            assert process.mm.replicated and kernel.swap.stats.pages_swapped_in == 1
            alive = weakref.ref(kernel)
            del kernel, process
            assert alive() is None
        finally:
            gc.enable()

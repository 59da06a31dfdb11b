"""The kernel facade: one object wiring the whole OS model together.

A :class:`Kernel` owns the machine's physical memory, the page-table
page-caches, THP, AutoNUMA, the scheduler, the fault handler and the
syscall surface. Processes are created here; each gets its own PV-Ops
backend instance (native by default) so per-process page-table placement
and replication are independent, exactly as the per-process policies of §6
require.
"""

from __future__ import annotations

import weakref

from repro.inject.plan import ResilienceStats
from repro.kernel.autonuma import AutoNuma
from repro.kernel.fault import PageFaultHandler
from repro.kernel.policy import FixedNodePolicy, PlacementPolicy
from repro.kernel.process import MemoryDescriptor, Process
from repro.kernel.pvops import NativePagingOps
from repro.kernel.scheduler import Scheduler
from repro.kernel.swap import SwapManager
from repro.kernel.syscalls import VmSyscalls
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.kernel.thp import ThpController
from repro.machine.latency import ContentionTracker, MemoryTimings
from repro.machine.presets import paper_timings
from repro.machine.topology import Machine
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.paging.levels import GEOMETRY_4LEVEL, PagingGeometry
from repro.paging.pagetable import PageTableTree
from repro.tlb.mmu_cache import MmuCaches
from repro.tlb.shootdown import TlbShootdown
from repro.tlb.tlb import TlbHierarchy


class Kernel(VmSyscalls):
    """The simulated operating system."""

    def __init__(
        self,
        machine: Machine,
        timings: MemoryTimings | None = None,
        sysctl: Sysctl | None = None,
        geometry: PagingGeometry = GEOMETRY_4LEVEL,
    ):
        self.machine = machine
        self.timings = timings or paper_timings()
        self.sysctl = sysctl or Sysctl()
        self.geometry = geometry
        self.physmem = PhysicalMemory(machine)
        self.pagecache = PageTablePageCache(
            self.physmem, reserve_per_node=self.sysctl.pt_pagecache_frames
        )
        self.contention = ContentionTracker()
        self.thp = ThpController(self.physmem)
        self.fault_handler = PageFaultHandler(self.physmem, self.thp)
        self.shootdown = TlbShootdown()
        #: Hardware translation contexts registered by the engine; the
        #: shootdown path flushes them.
        self.cpu_contexts: list[tuple[TlbHierarchy, MmuCaches]] = []
        self.swap = SwapManager(self.physmem, self.shootdown, self.cpu_contexts)
        self.fault_handler.swap = self.swap
        self.autonuma = AutoNuma(self.physmem)
        self.scheduler = Scheduler(self.physmem)
        self.processes: dict[int, Process] = {}
        self._next_pid = 1
        self._mitosis = None
        #: Installed chaos plan, if any (see ``repro.inject.install_fault_plan``).
        self.fault_plan = None
        #: Degradation/retry/recovery accounting for the resilient
        #: replication path (read by the engine into ``RunMetrics``).
        self.resilience = ResilienceStats()

    @property
    def mitosis(self):
        """The Mitosis policy manager (created lazily to keep the kernel
        importable without the mitosis package and vice versa).

        It reaches the kernel through a weak proxy, so a dropped kernel
        is freed at once instead of waiting for the cyclic collector."""
        if self._mitosis is None:
            from repro.mitosis.manager import MitosisManager

            self._mitosis = MitosisManager(weakref.proxy(self))
        return self._mitosis

    def create_process(
        self,
        name: str = "proc",
        socket: int = 0,
        pt_policy: PlacementPolicy | None = None,
        data_policy: PlacementPolicy | None = None,
    ) -> Process:
        """Spawn a process with one thread pinned on ``socket``.

        The system-wide Mitosis mode is applied at creation time:
        ``FIXED_SOCKET`` forces page-tables onto the configured socket;
        ``ALL`` enables full replication immediately; ``PER_PROCESS`` starts
        native until the process opts in through
        :meth:`repro.mitosis.manager.MitosisManager.set_replication_mask`.
        """
        self.machine.socket(socket)
        ops = NativePagingOps(self.pagecache, pt_policy=pt_policy)
        if pt_policy is None and self.sysctl.mitosis_mode is MitosisMode.FIXED_SOCKET:
            ops.pt_policy = FixedNodePolicy(self.sysctl.mitosis_fixed_socket)
        tree = PageTableTree(ops, geometry=self.geometry, node_hint=socket)
        mm = MemoryDescriptor(tree, va_limit=self.geometry.va_limit)
        if data_policy is not None:
            mm.data_policy = data_policy
        process = Process(pid=self._next_pid, name=name, mm=mm)
        self._next_pid += 1
        process.add_thread(socket)
        self.processes[process.pid] = process
        if self.sysctl.mitosis_mode is MitosisMode.ALL:
            self.mitosis.set_replication_mask(process, frozenset(self.machine.node_ids()))
        return process

    def destroy_process(self, process: Process) -> None:
        """Tear down an exited process: unmap everything, free all frames."""
        mm = process.mm
        for vma in list(mm.vmas):
            self.sys_munmap(process, vma.start, vma.length)
        self.autonuma.forget(process)
        # Release remaining page-table pages (root and replicas).
        for page in list(mm.tree.registry.values()):
            if page.is_replica:
                continue
            mm.tree.ops.release_table(mm.tree, page)
        self.processes.pop(process.pid, None)

    def touch(self, process: Process, va: int, socket: int | None = None, is_write: bool = False):
        """Demand-fault one address (convenience for tests/examples)."""
        socket = process.home_socket if socket is None else socket
        allow_huge = self.sysctl.thp_enabled
        return self.fault_handler.handle(process, va, socket, is_write=is_write, allow_huge=allow_huge)

    def register_cpu_context(self, tlb: TlbHierarchy, mmu: MmuCaches) -> None:
        """Engine hook: make a core's translation caches shootdown-visible."""
        self.cpu_contexts.append((tlb, mmu))

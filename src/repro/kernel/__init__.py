"""The simulated operating system: processes, VMAs, faults, policies,
scheduling and the PV-Ops indirection Mitosis plugs into."""

from repro.kernel.autonuma import AutoNuma, AutoNumaStats
from repro.kernel.balance import LoadBalancer, Move
from repro.kernel.costs import WorkCounters, ops_cycles, syscall_cycles
from repro.kernel.fault import FaultResult, PageFaultHandler
from repro.kernel.kernel import Kernel
from repro.kernel.debug import ConsistencyError, validate_all, validate_mm
from repro.kernel.migrate import migrate_all_data, migrate_mapped_page
from repro.kernel.mmapfile import FileMapManager, FileMapping, SimFile
from repro.kernel.policy import (
    FirstTouchPolicy,
    FixedNodePolicy,
    InterleavePolicy,
    PlacementPolicy,
)
from repro.kernel.process import MemoryDescriptor, MmLock, Process, Thread
from repro.kernel.pvops import NativePagingOps
from repro.kernel.scheduler import Scheduler, SchedulerStats
from repro.kernel.swap import SwapDevice, SwapEntry, SwapManager, SwapStats
from repro.kernel.syscalls import SyscallResult, VmSyscalls
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.kernel.thp import ThpController, ThpStats
from repro.kernel.vma import PROT_DEFAULT, Vma, VmaList

__all__ = [
    "AutoNuma",
    "AutoNumaStats",
    "ConsistencyError",
    "FileMapManager",
    "FileMapping",
    "SimFile",
    "validate_all",
    "validate_mm",
    "FaultResult",
    "FirstTouchPolicy",
    "FixedNodePolicy",
    "InterleavePolicy",
    "Kernel",
    "LoadBalancer",
    "Move",
    "MemoryDescriptor",
    "MitosisMode",
    "MmLock",
    "NativePagingOps",
    "PROT_DEFAULT",
    "PageFaultHandler",
    "PlacementPolicy",
    "Process",
    "Scheduler",
    "SchedulerStats",
    "SwapDevice",
    "SwapEntry",
    "SwapManager",
    "SwapStats",
    "SyscallResult",
    "Sysctl",
    "Thread",
    "ThpController",
    "ThpStats",
    "Vma",
    "VmaList",
    "VmSyscalls",
    "WorkCounters",
    "migrate_all_data",
    "migrate_mapped_page",
    "ops_cycles",
    "syscall_cycles",
]

"""Graceful degradation: replication survives per-socket OOM.

The acceptance arc: a seeded fault plan (or real exhaustion) OOMs one
socket during replication -> the run completes with partial replication
recorded -> the daemon completes the mask once memory frees up -> the
replica-consistency verifier reports zero violations.
"""

import pytest

from repro.errors import OutOfMemoryError
from repro.inject import FaultPlan, install_fault_plan, uninstall_fault_plan, verify_kernel
from repro.kernel.kernel import Kernel
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine, Socket
from repro.mitosis.background import run_to_completion, start_background_replication
from repro.mitosis.daemon import MitosisDaemon
from repro.mitosis.degrade import enable_replication_resilient, tables_missing_on
from repro.mitosis.replication import enable_replication, replica_sockets
from repro.sim.metrics import RunMetrics
from repro.units import KIB, MIB, PAGE_SIZE

BOTH = frozenset({0, 1})


@pytest.fixture
def proc2(kernel2):
    process = kernel2.create_process("app", socket=0)
    process.add_thread(1)
    kernel2.sys_mmap(process, MIB, populate=True)
    return process


def starved_kernel(socket1_frames: int) -> Kernel:
    """Two sockets; socket 1 has only ``socket1_frames`` frames total."""
    machine = Machine(
        sockets=(Socket(0, 1, 32 * MIB), Socket(1, 1, socket1_frames * PAGE_SIZE))
    )
    return Kernel(machine, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS))


class TestInjectedDegradeRecoverArc:
    """The flagship end-to-end test, driven by a seeded FaultPlan."""

    def setup_degraded(self, kernel2, proc2, limit=4, seed=7):
        plan = FaultPlan(seed=seed)
        plan.pagecache_oom(node=1, limit=limit)
        install_fault_plan(kernel2, plan)
        kernel2.mitosis.set_replication_mask(proc2, BOTH)
        return plan

    def test_enable_degrades_instead_of_dying(self, kernel2, proc2):
        self.setup_degraded(kernel2, proc2)
        assert proc2.mm.replication_mask == frozenset({0})
        state = proc2.mm.degraded
        assert state is not None
        assert state.requested_mask == BOTH
        assert state.missing == frozenset({1})
        assert "socket 1" in state.reason
        assert kernel2.resilience.degradations == 1
        assert kernel2.resilience.retries == 1  # one reclaim-then-retry
        assert verify_kernel(kernel2).ok

    def test_daemon_completes_mask_after_fault_clears(self, kernel2, proc2):
        self.setup_degraded(kernel2, proc2, limit=4)
        daemon = MitosisDaemon(manager=kernel2.mitosis, process=proc2)
        # Epoch 0: faults 3 and 4 still fire -> still degraded, backoff 1->2.
        assert daemon.observe(0, RunMetrics())
        assert proc2.mm.degraded is not None
        assert proc2.mm.degraded.retries == 1
        assert proc2.mm.degraded.next_retry_epoch == 1
        # Epoch 1: the transient fault is exhausted -> mask completes.
        assert daemon.observe(1, RunMetrics())
        assert proc2.mm.degraded is None
        assert proc2.mm.replication_mask == BOTH
        assert replica_sockets(proc2.mm.tree) == BOTH
        assert kernel2.resilience.recoveries == 1
        assert [d.action for d in daemon.decisions] == ["retry-degraded", "complete-mask"]
        report = verify_kernel(kernel2)
        assert report.ok, report.render()

    def test_backoff_doubles_and_caps(self, kernel2, proc2):
        self.setup_degraded(kernel2, proc2, limit=100)  # effectively permanent
        daemon = MitosisDaemon(manager=kernel2.mitosis, process=proc2, backoff_cap=4)
        epoch = 0
        waits = []
        for _ in range(5):
            state = proc2.mm.degraded
            assert daemon.observe(epoch, RunMetrics())
            waits.append(proc2.mm.degraded.next_retry_epoch - epoch)
            epoch = proc2.mm.degraded.next_retry_epoch
        assert waits == [1, 2, 4, 4, 4]  # doubles, then capped

    def test_daemon_respects_backoff_window(self, kernel2, proc2):
        self.setup_degraded(kernel2, proc2, limit=100)
        daemon = MitosisDaemon(manager=kernel2.mitosis, process=proc2)
        daemon.observe(0, RunMetrics())  # schedules next retry at epoch 1
        retries_before = proc2.mm.degraded.retries
        # Same epoch again: blocked by the window, falls through to the
        # normal policy path (which does nothing here).
        daemon.observe(0, RunMetrics())
        assert proc2.mm.degraded.retries == retries_before

    def test_same_seed_same_faults(self, machine2):
        def run():
            kernel = Kernel(
                machine2, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS)
            )
            process = kernel.create_process("app", socket=0)
            process.add_thread(1)
            kernel.sys_mmap(process, MIB, populate=True)
            plan = FaultPlan(seed=11)
            plan.pagecache_oom(node=1, probability=0.7, limit=6)
            install_fault_plan(kernel, plan)
            kernel.mitosis.set_replication_mask(process, BOTH)
            return [(f.seq, f.site, f.context) for f in plan.log]

        assert run() == run()

    def test_strict_mode_still_raises(self, kernel2, proc2):
        """The all-or-nothing primitive under the resilient path still
        raises, and leaves the mm's mask and degraded state alone."""
        plan = FaultPlan()
        plan.pagecache_oom(node=1)
        install_fault_plan(kernel2, plan)
        with pytest.raises(OutOfMemoryError):
            enable_replication(proc2.mm.tree, kernel2.pagecache, BOTH)
        assert proc2.mm.degraded is None
        assert proc2.mm.replication_mask is None


class TestRealExhaustion:
    """The same arc without injection: socket 1 genuinely runs dry."""

    def test_degrade_then_daemon_completion(self):
        kernel = starved_kernel(socket1_frames=8)
        process = kernel.create_process("app", socket=0)
        process.add_thread(1)
        kernel.sys_mmap(process, 128 * KIB, populate=True)
        hogged = []
        while True:
            try:
                hogged.append(kernel.physmem.alloc_frame(1))
            except OutOfMemoryError:
                break

        kernel.mitosis.set_replication_mask(process, BOTH)
        assert process.mm.replication_mask == frozenset({0})
        assert process.mm.degraded is not None
        assert process.mm.degraded.missing == frozenset({1})

        # Memory frees up later; the daemon completes the mask.
        for frame in hogged:
            kernel.physmem.free(frame)
        daemon = MitosisDaemon(manager=kernel.mitosis, process=process)
        assert daemon.observe(0, RunMetrics())
        assert process.mm.degraded is None
        assert process.mm.replication_mask == BOTH
        assert kernel.resilience.recoveries == 1
        report = verify_kernel(kernel)
        assert report.ok, report.render()

    def test_reclaim_rescue_avoids_degradation(self):
        """§5.5: another process' insurance replicas on the starving node
        are reclaimed, and the retry then succeeds — no degradation."""
        kernel = starved_kernel(socket1_frames=8)
        insured = kernel.create_process("insured", socket=0)
        kernel.sys_mmap(insured, 128 * KIB, populate=True)
        kernel.mitosis.set_replication_mask(insured, BOTH)  # 4 frames on node 1
        hogged = []
        while True:
            try:
                hogged.append(kernel.physmem.alloc_frame(1))
            except OutOfMemoryError:
                break

        newcomer = kernel.create_process("newcomer", socket=0)
        newcomer.add_thread(1)
        kernel.sys_mmap(newcomer, 128 * KIB, populate=True)
        kernel.mitosis.set_replication_mask(newcomer, BOTH)

        assert newcomer.mm.replication_mask == BOTH
        assert newcomer.mm.degraded is None
        assert kernel.resilience.reclaim_rescues == 1
        # The insurance replicas were the memory that made it possible.
        assert insured.mm.replication_mask is None
        assert replica_sockets(insured.mm.tree) == frozenset({0})
        assert verify_kernel(kernel).ok

    def test_no_socket_satisfiable_leaves_tree_native(self, kernel2):
        process = kernel2.create_process("app", socket=0)
        kernel2.sys_mmap(process, 128 * KIB, populate=True)
        plan = FaultPlan()
        plan.pagecache_oom()  # every refill fails, every node
        install_fault_plan(kernel2, plan)
        achieved = enable_replication_resilient(kernel2, process, frozenset({1}))
        assert achieved == frozenset()
        assert process.mm.replication_mask is None
        assert process.mm.degraded is not None
        assert process.mm.degraded.achieved_mask == frozenset()
        uninstall_fault_plan(kernel2)
        assert verify_kernel(kernel2).ok


class TestBackgroundJobDegradation:
    def test_job_degrades_and_records_outcome(self, kernel2, proc2):
        plan = FaultPlan()
        plan.pagecache_oom(node=1)  # node 1 dry for the whole job
        install_fault_plan(kernel2, plan)
        job = start_background_replication(
            proc2.mm.tree, kernel2.pagecache, BOTH, kernel=kernel2, mm=proc2.mm
        )
        run_to_completion(job)
        assert job.mask == frozenset({0})
        assert job.degraded_sockets == {1}
        assert job.retries >= 1
        assert proc2.mm.replication_mask == frozenset({0})
        assert proc2.mm.degraded is not None
        assert proc2.mm.degraded.missing == frozenset({1})
        assert proc2.mm.tree.ops.mask == frozenset({0})  # new tables follow
        uninstall_fault_plan(kernel2)
        assert verify_kernel(kernel2).ok

    def test_daemon_completes_job_degradation(self, kernel2, proc2):
        plan = FaultPlan()
        plan.pagecache_oom(node=1, limit=2)
        install_fault_plan(kernel2, plan)
        job = start_background_replication(
            proc2.mm.tree, kernel2.pagecache, BOTH, kernel=kernel2, mm=proc2.mm
        )
        run_to_completion(job)
        assert proc2.mm.degraded is not None
        daemon = MitosisDaemon(manager=kernel2.mitosis, process=proc2)
        assert daemon.observe(0, RunMetrics())
        assert proc2.mm.degraded is None
        assert proc2.mm.replication_mask == BOTH
        assert verify_kernel(kernel2).ok

    def test_job_without_kernel_keeps_strict_behaviour(self, kernel2, proc2):
        plan = FaultPlan()
        plan.pagecache_oom(node=1, limit=1)
        install_fault_plan(kernel2, plan)
        job = start_background_replication(proc2.mm.tree, kernel2.pagecache, BOTH)
        with pytest.raises(OutOfMemoryError):
            run_to_completion(job)
        # Resumable after the transient fault clears.
        run_to_completion(job)
        assert job.done
        assert replica_sockets(proc2.mm.tree) == BOTH


class TestHelpers:
    def test_tables_missing_on_counts_uncovered_rings(self, kernel2, proc2):
        tree = proc2.mm.tree
        total = tree.table_count()
        assert tables_missing_on(tree, 1) == total
        kernel2.mitosis.set_replication_mask(proc2, BOTH)
        assert tables_missing_on(tree, 1) == 0

    def test_degraded_state_describe(self, kernel2, proc2):
        plan = FaultPlan()
        plan.pagecache_oom(node=1, limit=2)
        install_fault_plan(kernel2, plan)
        kernel2.mitosis.set_replication_mask(proc2, BOTH)
        text = proc2.mm.degraded.describe()
        assert "[0]" in text and "[0, 1]" in text and "missing [1]" in text

"""The warm-worker pool: reuse, recycle-on-timeout/crash, escalation,
and pooled-vs-inline equivalence under chaos.

Real child processes (the pool's whole point is their lifecycle), so
aggressive timeouts keep these fast.
"""

import errno
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fleet import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    STATUS_COMPUTED,
    STATUS_QUARANTINED,
    Fleet,
    FleetConfig,
    FleetReport,
    PoolWorker,
    ProbeSpec,
    ResultCache,
    WorkerPool,
    canonical_json,
)
from repro.fleet.pool import LEASES_PER_WORKER
from repro.inject import FaultPlan


def wait_for_outcome(worker, deadline=30.0):
    start = time.monotonic()  # lint: allow[DET001] -- test harness real time
    while time.monotonic() - start < deadline:  # lint: allow[DET001] -- ditto
        outcome = worker.poll()
        if outcome is not None:
            return outcome
        time.sleep(0.005)
    pytest.fail("pool worker never produced an outcome")


@pytest.fixture
def pool():
    pool = WorkerPool(size=1, grace=0.3)
    yield pool
    pool.close()


class TestWarmReuse:
    def test_many_jobs_one_process(self, pool):
        """The headline property: N jobs, zero respawns, same pid."""
        worker = pool.workers[0]
        pid = worker.process.pid
        for n in range(5):
            worker.submit(ProbeSpec(value=n), attempt=1, timeout=20.0)
            outcome = wait_for_outcome(worker)
            assert outcome.status == OUTCOME_OK
            assert outcome.payload == {"ok": True, "value": n, "attempt": 1}
        assert worker.process.pid == pid  # never recycled
        assert worker.jobs_done == 5
        assert worker.recycles == 0
        assert pool.recycles == 0

    def test_job_error_keeps_the_worker_warm(self, pool):
        """A job-level exception is a result, not a worker death."""
        worker = pool.workers[0]
        pid = worker.process.pid
        worker.submit(ProbeSpec(behavior="fail"), attempt=2, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_ERROR
        assert "RuntimeError" in outcome.detail
        assert "attempt 2" in outcome.detail
        worker.submit(ProbeSpec(value=3), attempt=3, timeout=20.0)
        assert wait_for_outcome(worker).ok
        assert worker.process.pid == pid and worker.recycles == 0


class TestRecycle:
    def test_timeout_recycles_and_next_job_succeeds(self, pool):
        """A stuck worker is killed at the deadline and the slot gets a
        fresh process; the next job on that slot runs clean."""
        worker = pool.workers[0]
        stuck_pid = worker.process.pid
        worker.submit(
            ProbeSpec(behavior="hang", hang_seconds=60.0),
            attempt=1, timeout=0.4,
        )
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_TIMEOUT
        assert "killed after 0.4s" in outcome.detail
        assert worker.recycles == 1
        assert worker.process.pid != stuck_pid  # a fresh process
        assert worker.process.is_alive()

        worker.submit(ProbeSpec(value=8), attempt=2, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_OK
        assert outcome.payload["value"] == 8

    def test_stubborn_worker_needs_sigkill_but_still_recycles(self, pool):
        """SIGTERM→SIGKILL escalation against a worker that ignores
        SIGTERM: the polite kill fails, the escalation lands, the slot
        recycles."""
        worker = pool.workers[0]
        stuck_pid = worker.process.pid
        worker.submit(
            ProbeSpec(behavior="stubborn", hang_seconds=60.0),
            attempt=1, timeout=0.4,
        )
        start = time.monotonic()  # lint: allow[DET001] -- test harness real time
        outcome = wait_for_outcome(worker)
        elapsed = time.monotonic() - start  # lint: allow[DET001] -- ditto
        assert outcome.status == OUTCOME_TIMEOUT
        assert worker.recycles == 1
        assert worker.process.pid != stuck_pid
        # The SIGTERM grace had to elapse before SIGKILL.
        assert elapsed >= 0.3
        worker.submit(ProbeSpec(value=1), attempt=2, timeout=20.0)
        assert wait_for_outcome(worker).ok

    def test_crash_recycles_with_exit_code(self, pool):
        worker = pool.workers[0]
        dead_pid = worker.process.pid
        worker.submit(ProbeSpec(behavior="crash"), attempt=1, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_CRASH
        assert "exit code 23" in outcome.detail
        assert worker.recycles == 1
        assert worker.process.pid != dead_pid
        worker.submit(ProbeSpec(value=2), attempt=2, timeout=20.0)
        assert wait_for_outcome(worker).ok

    def test_idle_death_is_replaced_on_submit(self, pool):
        worker = pool.workers[0]
        worker.process.kill()
        worker.process.join()
        worker.submit(ProbeSpec(value=4), attempt=1, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_OK
        assert worker.recycles == 1


class TestSupervisorEscalation:
    def test_per_attempt_stubborn_worker_is_sigkilled(self, pool):
        """The process of an attempt that ignores SIGTERM dies by SIGKILL:
        the escalation, not the polite signal, ends it."""
        worker = pool.workers[0]
        stubborn = worker.process
        worker.submit(
            ProbeSpec(behavior="stubborn", hang_seconds=60.0),
            attempt=1, timeout=0.4,
        )
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_TIMEOUT
        assert not stubborn.is_alive()
        # SIGTERM alone cannot have done it: the handler ignores it.
        assert stubborn.exitcode == -9  # SIGKILL


class _PipeEnd:
    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


class _ForkFailsContext:
    """A multiprocessing context whose fork fails at ``start()``, as a
    slot recycle does when the host is out of processes."""

    def __init__(self) -> None:
        self.parent, self.child = _PipeEnd(), _PipeEnd()

    def Pipe(self, duplex: bool = True):
        return self.parent, self.child

    def Process(self, **kwargs):
        return self

    def start(self) -> None:
        raise OSError(errno.EAGAIN, "fork failed")


class TestSpawnFailure:
    def test_failed_start_closes_the_child_end(self):
        ctx = _ForkFailsContext()
        with pytest.raises(OSError, match="fork failed"):
            PoolWorker(0, context=ctx)
        assert ctx.child.closed  # no pipe fd leaked into the parent
        assert not ctx.parent.closed  # still owned by the half-built worker


class TestAbort:
    def test_poll_is_none_while_running(self, pool):
        worker = pool.workers[0]
        worker.submit(
            ProbeSpec(behavior="hang", hang_seconds=60.0),
            attempt=1, timeout=30.0,
        )
        try:
            assert worker.poll() is None
            assert worker.busy
        finally:
            worker.abort()

    def test_abort_reaps_a_busy_hung_worker(self, pool):
        worker = pool.workers[0]
        worker.submit(
            ProbeSpec(behavior="hang", hang_seconds=60.0),
            attempt=1, timeout=30.0,
        )
        worker.abort()
        assert not worker.busy
        assert not worker.process.is_alive()
        assert worker.process.exitcode is not None


class TestShutdown:
    def test_close_reaps_every_worker(self):
        pool = WorkerPool(size=2, grace=0.3)
        processes = [w.process for w in pool.workers]
        assert all(p.is_alive() for p in processes)
        pool.close()
        assert all(not p.is_alive() for p in processes)
        assert all(p.exitcode is not None for p in processes)

    def test_close_says_goodbye_to_every_worker_before_joining(self, monkeypatch):
        calls = []
        say_goodbye, reap = PoolWorker.say_goodbye, PoolWorker.reap

        def spy_goodbye(worker):
            calls.append(("goodbye", worker.id))
            say_goodbye(worker)

        def spy_reap(worker):
            calls.append(("reap", worker.id))
            reap(worker)

        monkeypatch.setattr(PoolWorker, "say_goodbye", spy_goodbye)
        monkeypatch.setattr(PoolWorker, "reap", spy_reap)
        pool = WorkerPool(size=2, grace=2.0)
        pool.close()
        assert calls == [("goodbye", 0), ("goodbye", 1), ("reap", 0), ("reap", 1)]
        assert [w.process.exitcode for w in pool.workers] == [0, 0]

    def test_idle_workers_exit_cleanly_on_shutdown(self):
        """An idle worker gets the goodbye message and exits 0 — no
        signal needed."""
        pool = WorkerPool(size=1, grace=2.0)
        worker = pool.workers[0]
        worker.submit(ProbeSpec(value=1), attempt=1, timeout=20.0)
        wait_for_outcome(worker)
        pool.close()
        assert worker.process.exitcode == 0


#: Builds a 2-slot pool (recycling slot 0 first when asked), prints the
#: workers' pids and waits to be killed.
_DISPATCHER = """
import sys, time
from repro.fleet import ProbeSpec, WorkerPool

pool = WorkerPool(size=2, grace=0.3)
if sys.argv[1] == "recycled":
    worker = pool.workers[0]
    worker.process.kill()
    worker.process.join()
    worker.submit(ProbeSpec(value=1), attempt=1, timeout=20.0)
    while worker.poll() is None:
        time.sleep(0.01)
    assert worker.recycles == 1
print(*(w.process.pid for w in pool.workers), flush=True)
time.sleep(60)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestOrphanedWorkers:
    """Workers exit once their dispatcher dies without closing the pool:
    SIGKILLed, it sends no goodbye, so each worker must see EOF on its
    pipe, which needs every copy of the pipe's parent end closed."""

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    @pytest.mark.parametrize("mode", ["plain", "recycled"])
    def test_workers_exit_when_the_dispatcher_is_killed(self, mode):
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        dispatcher = subprocess.Popen(
            [sys.executable, "-c", _DISPATCHER, mode],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        pids: list[int] = []
        try:
            ready, _, _ = select.select([dispatcher.stdout], [], [], 30.0)
            assert ready, "the dispatcher never reported its workers"
            pids = [int(pid) for pid in dispatcher.stdout.readline().split()]
            assert len(pids) == 2
            dispatcher.kill()
            dispatcher.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            if dispatcher.poll() is None:
                dispatcher.kill()
                dispatcher.wait(timeout=10)
            dispatcher.stdout.close()
            for pid in pids:
                if _running(pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass


class TestLeases:
    """A slot holds the job it runs and the next one, already in its pipe."""

    def test_first_launches_spread_across_the_pool(self):
        pool = WorkerPool(size=2, grace=0.3)
        try:
            chosen = []
            while (worker := pool.idle_worker()) is not None:
                worker.submit(ProbeSpec(value=len(chosen)), attempt=1, timeout=20.0)
                chosen.append(worker.id)
            # Every worker gets a running job before any gets a queued one.
            assert chosen == [0, 1, 0, 1]
            assert [len(w.leases) for w in pool.workers] == [LEASES_PER_WORKER] * 2
        finally:
            pool.close()

    def test_queued_lease_runs_on_the_same_warm_process(self, pool):
        worker = pool.workers[0]
        pid = worker.process.pid
        worker.submit(ProbeSpec(value=1), attempt=1, timeout=20.0)
        worker.submit(ProbeSpec(value=2), attempt=3, timeout=20.0)
        assert not worker.has_room
        first, second = wait_for_outcome(worker), wait_for_outcome(worker)
        assert first.payload == {"ok": True, "value": 1, "attempt": 1}
        assert second.payload == {"ok": True, "value": 2, "attempt": 3}
        assert not worker.busy
        assert worker.process.pid == pid and worker.recycles == 0

    @pytest.mark.parametrize(
        "behavior, status", [("crash", OUTCOME_CRASH), ("hang", OUTCOME_TIMEOUT)]
    )
    def test_recycle_hands_back_the_queued_lease(self, pool, behavior, status):
        worker = pool.workers[0]
        worker.submit(
            ProbeSpec(behavior=behavior, hang_seconds=60.0), attempt=1, timeout=0.4
        )
        worker.submit(ProbeSpec(value=5), attempt=1, timeout=20.0)
        assert wait_for_outcome(worker).status == status
        # The dead process never read the queued job: the slot dropped it.
        assert not worker.busy
        assert worker.recycles == 1
        worker.submit(ProbeSpec(value=5), attempt=1, timeout=20.0)
        assert wait_for_outcome(worker).payload["value"] == 5

    def test_result_then_death_charges_the_queued_lease(self, pool):
        """The running job reported, so the queued one may have started
        before the process died: it is the one charged with the crash."""
        worker = pool.workers[0]
        worker.submit(ProbeSpec(value=1), attempt=1, timeout=20.0)
        worker.submit(ProbeSpec(behavior="crash"), attempt=1, timeout=20.0)
        assert wait_for_outcome(worker).ok
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_CRASH
        assert "exit code 23" in outcome.detail
        assert worker.recycles == 1 and not worker.busy

    @pytest.mark.parametrize(
        "behavior, counter", [("crash", "crashes"), ("hang", "timeouts")]
    )
    def test_handed_back_job_keeps_its_attempts(self, tmp_path, behavior, counter):
        """One slot: the ok job queues behind a crash or hang probe, is
        handed back when the slot recycles, and completes on the fresh
        process as its first attempt, adding to no counter."""
        config = FleetConfig(workers=1, timeout=0.4, grace=0.3, max_attempts=1)
        fleet = Fleet(config, ResultCache(tmp_path / "cache"))
        report = fleet.run([
            ProbeSpec(behavior=behavior, hang_seconds=60.0, value=1),
            ProbeSpec(value=2),
        ])
        by_label = {o.label: o for o in report.outcomes}
        assert by_label[f"probe:{behavior}/1"].status == STATUS_QUARANTINED
        queued = by_label["probe:ok/2"]
        assert queued.status == STATUS_COMPUTED
        assert queued.attempts == 1 and queued.failures == []
        assert queued.payload == {"ok": True, "value": 2, "attempt": 1}
        assert getattr(report, counter) == 1  # the probe's own failure
        assert report.timeouts + report.crashes + report.errors == 1
        assert report.retries == 0
        assert report.worker_recycles == 1

    def test_deadline_counts_from_when_the_lease_starts(self, tmp_path):
        """Two 0.4 s jobs on one slot with a 0.6 s timeout: the second
        finishes 0.8 s after it was sent, within 0.6 s of its start."""
        config = FleetConfig(workers=1, timeout=0.6, grace=0.3, max_attempts=1)
        fleet = Fleet(config, ResultCache(tmp_path / "cache"))
        report = fleet.run(
            [ProbeSpec(behavior="hang", hang_seconds=0.4, value=n) for n in (1, 2)]
        )
        assert report.computed == 2 and report.ok
        assert report.timeouts == 0 and report.worker_recycles == 0

    def test_hand_back_consults_no_fault_rule(self, tmp_path):
        """A handed-back job relaunches without a second look at
        ``fleet.worker.crash``: the rule sees one call per attempt."""
        plan = FaultPlan(seed=0)
        watch = plan.worker_crash(on_calls={1000})  # matches every launch, never fires
        config = FleetConfig(workers=1, timeout=20.0, max_attempts=2, fault_plan=plan)
        fleet = Fleet(config, ResultCache(tmp_path / "cache"))
        report = fleet.run([ProbeSpec(behavior="crash", value=1), ProbeSpec(value=2)])
        launched = sum(o.attempts for o in report.outcomes)
        assert launched == 3  # the crash probe twice, the handed-back job once
        assert watch.calls == launched


class TestDispatcherIntegration:
    def test_pooled_fleet_reuses_workers(self, tmp_path):
        config = FleetConfig(workers=2, timeout=20.0)
        fleet = Fleet(config, ResultCache(tmp_path / "cache"))
        report = fleet.run([ProbeSpec(value=n) for n in range(12)])
        assert report.computed == 12 and report.ok
        assert report.dispatch_mode == "pooled"
        assert report.worker_recycles == 0

    def test_pool_recycle_counted_in_report(self, tmp_path):
        config = FleetConfig(
            workers=1, timeout=0.4, grace=0.3, max_attempts=2,
            backoff_base=0.0, backoff_cap=0.0,
        )
        fleet = Fleet(config, ResultCache(tmp_path / "cache"))
        report = fleet.run([
            ProbeSpec(behavior="hang", hang_seconds=60.0, value=1),
            ProbeSpec(value=2),
        ])
        assert report.timeouts == 2  # two attempts, both killed
        assert report.worker_recycles == 2
        assert report.quarantined == 1 and report.computed == 1
        by_label = {o.label: o for o in report.outcomes}
        assert by_label["probe:ok/2"].ok  # ran on a recycled slot

    def test_per_job_trace_bundles_from_reused_workers(self, tmp_path):
        """A reused worker opens and closes a fresh TraceSession per job:
        every cell gets its own non-empty bundle."""
        import json

        trace_dir = tmp_path / "traces"
        config = FleetConfig(
            workers=1, timeout=20.0, trace_dir=str(trace_dir)
        )
        fleet = Fleet(config, ResultCache(tmp_path / "cache"))
        report = fleet.run([ProbeSpec(value=n) for n in range(3)])
        assert report.computed == 3
        bundles = sorted(trace_dir.glob("*.trace.json"))
        assert len(bundles) == 3
        for bundle in bundles:
            events = json.loads(bundle.read_text())["traceEvents"]
            assert events, f"empty trace bundle {bundle.name}"



#: Cells whose value hits these residues (mod ``INJECT_MOD``) get an
#: injected crash / hang on their first attempt.
INJECT_MOD = 9
CRASH_RESIDUE = 3
HANG_RESIDUE = 6
#: Every 37th-ish cell is flaky (fails once, then succeeds).
FLAKY_MOD = 37
#: One always-crashing and one always-hanging cell: deterministic
#: quarantines that exercise the recycle path for real.
CRASH_VALUE = 13
HANG_VALUE = 77


def probe_value(context: dict) -> int:
    """The cell value back out of a probe label (``probe:<behavior>/<n>``)."""
    return int(context["label"].rsplit("/", 1)[1])


def chaos_plan() -> FaultPlan:
    """Order-independent injection: fires on (value, attempt) only, never
    on call counts or plan RNG draws, so pooled and inline dispatch inject
    identically however their launches interleave."""
    plan = FaultPlan(seed=0)
    plan.worker_crash(
        predicate=lambda ctx: ctx["attempt"] == 1
        and probe_value(ctx) % INJECT_MOD == CRASH_RESIDUE
    )
    plan.worker_crash(
        hang=True,
        predicate=lambda ctx: ctx["attempt"] == 1
        and probe_value(ctx) % INJECT_MOD == HANG_RESIDUE,
    )
    return plan


def chaos_specs(jobs: int) -> list[ProbeSpec]:
    """Mostly ok-cells plus deterministic trouble."""
    specs: list[ProbeSpec] = []
    for n in range(jobs):
        if n == CRASH_VALUE:
            specs.append(ProbeSpec(behavior="crash", value=n))
        elif n == HANG_VALUE:
            specs.append(ProbeSpec(behavior="hang", hang_seconds=60.0, value=n))
        elif n % FLAKY_MOD == 5:
            specs.append(ProbeSpec(behavior="flaky", succeed_after=2, value=n))
        else:
            specs.append(ProbeSpec(value=n))
    return specs


def outcome_signature(outcomes) -> list[tuple]:
    """The dispatch-independent fingerprint of a run: every cell's label,
    terminal status, attempt count, verdict and payload."""
    return sorted(
        (o.label, o.status, o.attempts, o.ok, canonical_json(o.payload or {}))
        for o in outcomes
    )


class TestChaosCampaign:
    """The pooled fleet under injected and real worker faults, checked
    against the in-process reference dispatch."""

    JOBS = 80

    @staticmethod
    def run(cache_dir, specs, workers):
        config = FleetConfig(
            workers=workers, timeout=0.5, backoff_base=0.0, backoff_cap=0.0,
            fault_plan=chaos_plan(),
        )
        return Fleet(config, ResultCache(cache_dir)).run(specs)

    def test_pooled_outcomes_match_inline_under_chaos(self, tmp_path):
        specs = chaos_specs(self.JOBS)
        pooled = self.run(tmp_path / "pooled", specs, workers=2)

        # Inline dispatch cannot survive a real crash or hang: compare
        # the other 78 cells (ok, flaky, injected crashes and hangs).
        fatal = {CRASH_VALUE, HANG_VALUE}
        inline = self.run(
            tmp_path / "inline",
            [spec for spec in specs if spec.value not in fatal],
            workers=0,
        )
        fatal_labels = {spec.label() for spec in specs if spec.value in fatal}
        survivors = [o for o in pooled.outcomes if o.label not in fatal_labels]
        assert inline.jobs == len(survivors) == self.JOBS - 2
        assert outcome_signature(survivors) == outcome_signature(inline.outcomes)

        quarantined = [o for o in pooled.outcomes if o.label in fatal_labels]
        assert [o.status for o in quarantined] == [STATUS_QUARANTINED] * 2
        assert [o.attempts for o in quarantined] == [FleetConfig.max_attempts] * 2

        assert pooled.dispatch_mode == "pooled"
        assert (pooled.computed, pooled.quarantined) == (78, 2)
        assert pooled.retries == 24
        # Nine injected plus three real ones per fault kind.
        assert (pooled.timeouts, pooled.crashes, pooled.errors) == (12, 12, 2)
        assert (pooled.injected_crashes, pooled.injected_hangs) == (9, 9)
        # Only the real crash and hang kill (and so recycle) a worker.
        assert pooled.worker_recycles == 6

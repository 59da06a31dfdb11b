"""Persistent warm-worker pool: import once, run many jobs.

Forking a fresh process per attempt would pay fork + interpreter state +
``import repro`` for *every* cell of a sweep — fine for long cells,
ruinous for the many-small-jobs campaigns the ablation matrices need. A
:class:`WorkerPool` amortizes that cost: ``workers`` long-lived child
processes each run :func:`_pool_worker_main`, a loop that pulls job
messages off a duplex pipe, executes them via :func:`execute_job` (fresh
per-job :class:`~repro.trace.session.TraceSession`, so every job gets its
own trace bundle), and streams results back.

Each slot holds up to :data:`LEASES_PER_WORKER` jobs: the one it runs and
the next one, already sent down its pipe, so a worker goes from one cell
to the next without waiting for the dispatcher to persist the last
result. Workers also lower their own priority, so the dispatcher's
refills and persists do not queue behind running cells.

The parent never trusts the child:

* **timeout** — the running job's wall-clock deadline, counted from when
  it became the running job, is enforced by the dispatcher's poll; a
  stuck worker is killed with SIGTERM → SIGKILL escalation and the slot
  is **recycled** (a fresh process replaces it before the next job);
* **crash** — a worker that dies mid-job is detected by its dead pipe /
  process sentinel, reported as a ``crash`` outcome, and recycled;
* **hand-back** — a recycle drops the slot's queued jobs unstarted (the
  dead process never read them), so the dispatcher relaunches them
  without charging an attempt;
* **idle death** — a worker that dies between jobs is replaced on the
  next submit, invisibly to the job.

Attempt outcomes are a closed set:

* ``ok`` — the worker sent a payload;
* ``error`` — the worker caught a job-level exception and reported it
  (the job is retryable; the worker itself behaved);
* ``crash`` — the worker died without reporting (killed, ``os._exit``,
  segfault-shaped);
* ``timeout`` — the deadline passed; the dispatcher killed the worker.

Pool workers ignore SIGINT (the standard :mod:`multiprocessing` pool
convention): Ctrl-C belongs to the dispatcher, which drains finished
results and shuts the pool down cleanly.

Wall-clock use here is deliberate and annotated: supervision is about
*real* time (a hung worker hangs in real seconds), and nothing measured
here feeds back into simulated state.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection

from repro.fleet.jobs import JobSpecLike

#: Attempt outcome statuses.
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_CRASH = "crash"
OUTCOME_TIMEOUT = "timeout"

#: Jobs one slot holds at once: the one it runs and the next one, already
#: in its pipe, which the worker starts as soon as it sends a result.
LEASES_PER_WORKER = 2


@dataclass
class AttemptOutcome:
    """What one worker attempt came to."""

    status: str
    payload: dict | None = None
    detail: str = ""
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OUTCOME_OK


def _now() -> float:
    """Wall clock for supervision deadlines only."""
    return time.monotonic()  # lint: allow[DET001] -- supervision timeouts are real time


def execute_job(spec: JobSpecLike, attempt: int, trace_path: str | None) -> dict:
    """Run one job body and return its payload (raises on job error).

    With ``trace_path`` set, the job runs under its own fresh
    :class:`~repro.trace.session.TraceSession` whose Chrome export lands
    at that path — the per-job trace bundle of a fleet run. The session
    is opened and closed *per job*, so a long-lived pool worker produces
    one self-contained bundle per job it runs.
    """
    from contextlib import nullcontext

    from repro.trace.session import TraceSession, tracing
    from repro.trace.sinks import ChromeTraceSink

    if trace_path:
        sink = ChromeTraceSink(trace_path)
        session = TraceSession(
            sinks=[sink],
            metadata={"fleet-job": spec.label(), "attempt": attempt},
        )
        sink.open_session(session)
        scope = tracing(session)
    else:
        scope = nullcontext()
    with scope:
        return spec.run(attempt=attempt)


# protocol: receives[job] -- pulls job messages off the duplex pipe
# protocol: sends[result] -- streams one result message back per job
def _pool_worker_main(conn: Connection, parent_end: Connection) -> None:
    """Child-process body: loop pulling job messages, streaming results.

    ``parent_end`` is the dispatcher's end of this slot's pipe, which a
    forked child inherits; it is closed first, so that the dispatcher's
    death leaves no copy of it open and ``conn`` sees EOF. (A worker also
    holds copies of the parent ends of slots spawned before it; its exit
    releases them, so the workers of a dead dispatcher exit from the
    last-spawned back.)

    The loop exits on a ``shutdown`` message, on pipe EOF (the parent
    died or recycled this slot), or when a result can no longer be
    delivered. Job-level exceptions are reported as ``error`` results and
    the loop continues — only process death ends a warm worker's life.
    """
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.nice(5)  # the dispatcher's refills and persists go before running cells
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if not isinstance(message, dict) or message.get("op") != "job":
            break  # shutdown (or anything unrecognized): exit cleanly
        try:
            payload = execute_job(
                message["spec"], message["attempt"], message.get("trace_path")
            )
            reply = {"status": OUTCOME_OK, "payload": payload}
        except BaseException as exc:  # noqa: BLE001 - the report *is* the handler
            reply = {"status": OUTCOME_ERROR, "detail": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


@dataclass
class Lease:
    """One attempt sent down a slot's pipe.

    ``started`` is when the lease became the slot's running one, by the
    parent's clock: the attempt's deadline counts from there, so a queued
    lease spends none of its budget waiting behind the one ahead of it.
    """

    timeout: float
    started: float = 0.0

    def elapsed(self) -> float:
        return _now() - self.started


class PoolWorker:
    """One warm slot: a long-lived process + duplex pipe + its leases.

    ``leases`` holds up to :data:`LEASES_PER_WORKER` attempts in the order
    they were sent: the first is *running* (its deadline counts from when
    it became first), the rest are *queued* in the pipe. The slot is idle
    with no lease. ``poll`` decides the running lease; a reported result
    wins over an exit code, and a result arriving in the same tick as the
    deadline still counts. A timeout or a death without a result
    **recycles** the slot: the process is killed (SIGTERM → SIGKILL), a
    fresh one spawned, and every queued lease is **handed back** — dropped
    from ``leases`` unstarted, for the caller to relaunch. A queued lease
    becomes the running one when the result ahead of it arrives, so if the
    process then dies, that lease is the one charged with the crash.
    """

    def __init__(
        self,
        worker_id: int,
        grace: float = 0.5,
        context: multiprocessing.context.BaseContext | None = None,
    ):
        self.id = worker_id
        self.grace = grace
        self._ctx = context or multiprocessing.get_context()
        self.leases: deque[Lease] = deque()
        self.jobs_done = 0
        #: Times this slot's process was killed and replaced.
        self.recycles = 0
        self._spawn()

    def _spawn(self) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        try:
            self.conn = parent
            self.process = self._ctx.Process(
                target=_pool_worker_main, args=(child, parent), daemon=True
            )
            self.process.start()
        finally:
            # The parent keeps only its own end, even when the fork fails.
            child.close()

    @property
    def busy(self) -> bool:
        """True while the slot holds any lease."""
        return bool(self.leases)

    @property
    def has_room(self) -> bool:
        """True while the slot can take another lease."""
        return len(self.leases) < LEASES_PER_WORKER

    # -- lease ----------------------------------------------------------------

    # protocol: sends[job] -- leases the slot: one job message down the pipe
    def submit(
        self,
        spec: JobSpecLike,
        attempt: int,
        timeout: float,
        trace_path: str | None = None,
    ) -> None:
        """Lease this slot to one attempt and send the job (the frozen
        spec itself: the pipe pickles it). On an idle slot the attempt
        runs at once; on a busy one it queues behind the running lease.

        A send that fails on a busy slot means its process died holding
        the running lease: the new lease stays queued, and ``poll``
        decides both."""
        message = {
            "op": "job",
            "spec": spec,
            "attempt": attempt,
            "trace_path": trace_path,
        }
        if not self.leases and not self.process.is_alive():
            self._recycle()  # died idle (OOM kill, etc.): replace silently
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            if not self.leases:
                self._recycle()
                self.conn.send(message)
        lease = Lease(timeout=timeout)
        if not self.leases:
            lease.started = _now()
        self.leases.append(lease)

    # -- observation ----------------------------------------------------------

    @property
    def deadline(self) -> float:
        """Absolute monotonic time at which the running lease times out."""
        running = self.leases[0]
        return running.started + running.timeout

    @property
    def wait_objects(self) -> tuple:
        """Objects for :func:`multiprocessing.connection.wait`: the duplex
        pipe (readable on a result *and* on EOF) plus the process
        sentinel."""
        return (self.conn, self.process.sentinel)

    def poll(self) -> AttemptOutcome | None:
        """Non-blocking check of the running lease; an outcome once that
        attempt is decided. Timeout and crash recycle the slot and hand
        back the queued leases. Call again after an outcome: the next
        lease's result may already be in the pipe."""
        if not self.leases:
            return None
        message = self._try_recv()
        if message is not None:
            return self._finish(message)
        running = self.leases[0]
        if running.elapsed() > running.timeout:
            seconds = running.elapsed()
            self._stop_process()
            # One last look: the child may have reported right before dying.
            # Its process is gone, so a lease queued behind that result
            # is charged with the crash on the next poll.
            message = self._try_recv()
            if message is not None:
                return self._finish(message)
            self._recycle()
            return AttemptOutcome(
                status=OUTCOME_TIMEOUT,
                detail=f"killed after {running.timeout:g}s wall-clock; "
                "worker recycled",
                seconds=seconds,
            )
        if not self.process.is_alive():
            message = self._try_recv()
            if message is not None:
                # Sent then died: the result wins; the dead process is
                # replaced when the next lease is decided or submitted.
                return self._finish(message)
            self.process.join()
            exitcode = self.process.exitcode
            seconds = running.elapsed()
            self._recycle()
            return AttemptOutcome(
                status=OUTCOME_CRASH,
                detail=f"worker died without a result (exit code {exitcode}); "
                "worker recycled",
                seconds=seconds,
            )
        return None

    # protocol: receives[result] -- drains one result message, if ready
    def _try_recv(self) -> dict | None:
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            return None
        return None

    def _finish(self, message: dict) -> AttemptOutcome:
        """Decide the running lease from its result; the next lease, if
        any, becomes the running one now."""
        running = self.leases.popleft()
        self.jobs_done += 1
        outcome = AttemptOutcome(
            status=message.get("status", OUTCOME_ERROR),
            payload=message.get("payload"),
            detail=message.get("detail", ""),
            seconds=running.elapsed(),
        )
        if self.leases:
            self.leases[0].started = _now()
        return outcome

    # -- control --------------------------------------------------------------

    def _stop_process(self) -> None:
        """Terminate with escalation: SIGTERM, then SIGKILL after grace."""
        if not self.process.is_alive():
            self.process.join()
            return
        self.process.terminate()
        self.process.join(timeout=self.grace)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()

    def _recycle(self) -> None:
        """Replace the (dead or killed) process with a fresh one; the
        queued leases died unread with the old pipe."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.leases.clear()
        self.recycles += 1
        self._spawn()

    def abort(self) -> None:
        """Dispatcher hook on interrupt: kill the process, no respawn."""
        self.leases.clear()
        self._stop_process()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def say_goodbye(self) -> None:
        """Ask an idle, live worker to exit (the first half of ``shutdown``)."""
        if self.process.is_alive() and not self.leases:
            try:
                self.conn.send({"op": "shutdown"})
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass

    def reap(self) -> None:
        """Wait ``grace`` for a clean exit, escalate otherwise, and close
        the pipe (the second half of ``shutdown``)."""
        if self.process.is_alive() and not self.leases:
            self.process.join(timeout=self.grace)
        self._stop_process()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def shutdown(self) -> None:
        """End this slot's life: ask nicely if idle, escalate otherwise."""
        self.say_goodbye()
        self.reap()


class WorkerPool:
    """A fixed set of warm slots plus aggregate counters."""

    def __init__(
        self,
        size: int,
        grace: float = 0.5,
        context: multiprocessing.context.BaseContext | None = None,
    ):
        if size <= 0:
            raise ValueError("pool size must be positive")
        ctx = context or multiprocessing.get_context()
        self.workers = [PoolWorker(i, grace=grace, context=ctx) for i in range(size)]

    @property
    def size(self) -> int:
        return len(self.workers)

    @property
    def recycles(self) -> int:
        """Total processes killed and replaced across all slots."""
        return sum(worker.recycles for worker in self.workers)

    def idle_worker(self) -> PoolWorker | None:
        """The slot with room for another lease and the fewest leases
        (the lowest id among equals), or ``None`` when every slot is full.

        Fewest first spreads the first launches across the pool: every
        worker gets a running job before any gets a queued one."""
        best = None
        for worker in self.workers:
            if worker.has_room and (best is None or len(worker.leases) < len(best.leases)):
                best = worker
        return best

    def close(self) -> None:
        """Shut every slot down. Every idle worker gets its goodbye before
        any is joined, so they exit in parallel."""
        for worker in self.workers:
            worker.say_goodbye()
        for worker in self.workers:
            worker.reap()

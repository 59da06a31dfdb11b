"""Persistent warm-worker pool: import once, run many jobs.

Forking a fresh process per attempt would pay fork + interpreter state +
``import repro`` for *every* cell of a sweep — fine for long cells,
ruinous for the many-small-jobs campaigns the ablation matrices need. A
:class:`WorkerPool` amortizes that cost: ``workers`` long-lived child
processes each run :func:`_pool_worker_main`, a loop that pulls job
messages off a duplex pipe, executes them via :func:`execute_job` (fresh
per-job :class:`~repro.trace.session.TraceSession`, so every job gets its
own trace bundle), and streams results back.

The parent never trusts the child:

* **timeout** — the per-job wall-clock deadline is enforced by the
  dispatcher's poll; a stuck worker is killed with SIGTERM → SIGKILL
  escalation and the slot is **recycled** (a fresh process replaces it
  before the next job);
* **crash** — a worker that dies mid-job is detected by its dead pipe /
  process sentinel, reported as a ``crash`` outcome, and recycled;
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
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

from repro.fleet.jobs import JobSpecLike

#: Attempt outcome statuses.
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_CRASH = "crash"
OUTCOME_TIMEOUT = "timeout"


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
def _pool_worker_main(conn: Connection) -> None:
    """Child-process body: loop pulling job messages, streaming results.

    The loop exits on a ``shutdown`` message, on pipe EOF (the parent
    died or recycled this slot), or when a result can no longer be
    delivered. Job-level exceptions are reported as ``error`` results and
    the loop continues — only process death ends a warm worker's life.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
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


class PoolWorker:
    """One warm slot: a long-lived process + duplex pipe + lease state.

    The worker is either *idle* (warm, waiting for a job) or *busy*
    (leased to one attempt, with a wall-clock deadline). In ``poll`` a
    reported result wins over an exit code, and a result arriving in the
    same tick as the deadline still counts; a timeout or crash
    **recycles** the slot: the process is killed (SIGTERM → SIGKILL) and
    a fresh one spawned, so the next job on this slot starts clean.
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
        self.busy = False
        self.jobs_done = 0
        #: Times this slot's process was killed and replaced.
        self.recycles = 0
        # Lease state (valid while busy).
        self.spec: JobSpecLike | None = None
        self.attempt = 0
        self.timeout = 0.0
        self.started = 0.0
        self._spawn()

    def _spawn(self) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        try:
            self.conn = parent
            self.process = self._ctx.Process(
                target=_pool_worker_main, args=(child,), daemon=True
            )
            self.process.start()
        finally:
            # The parent keeps only its own end, even when the fork fails.
            child.close()

    # -- lease ----------------------------------------------------------------

    # protocol: sends[job] -- leases the slot: one job message down the pipe
    def submit(
        self,
        spec: JobSpecLike,
        attempt: int,
        timeout: float,
        trace_path: str | None = None,
    ) -> None:
        """Lease this (idle) slot to one attempt and send the job (the
        frozen spec itself: the pipe pickles it)."""
        message = {
            "op": "job",
            "spec": spec,
            "attempt": attempt,
            "trace_path": trace_path,
        }
        if not self.process.is_alive():
            self._recycle()  # died idle (OOM kill, etc.): replace silently
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            self._recycle()
            self.conn.send(message)
        self.busy = True
        self.spec = spec
        self.attempt = attempt
        self.timeout = timeout
        self.started = _now()

    # -- observation ----------------------------------------------------------

    def elapsed(self) -> float:
        return _now() - self.started

    @property
    def deadline(self) -> float:
        """Absolute monotonic time at which the current job times out."""
        return self.started + self.timeout

    @property
    def wait_objects(self) -> tuple:
        """Objects for :func:`multiprocessing.connection.wait`: the duplex
        pipe (readable on a result *and* on EOF) plus the process
        sentinel."""
        return (self.conn, self.process.sentinel)

    def poll(self) -> AttemptOutcome | None:
        """Non-blocking check of the current lease; an outcome once the
        attempt is decided. Timeout and crash recycle the slot."""
        if not self.busy:
            return None
        message = self._try_recv()
        if message is not None:
            return self._finish(message)
        if self.elapsed() > self.timeout:
            seconds = self.elapsed()
            self._stop_process()
            # One last look: the child may have reported right before dying.
            message = self._try_recv()
            self._recycle()
            if message is not None:
                return self._finish(message)
            self.busy = False
            return AttemptOutcome(
                status=OUTCOME_TIMEOUT,
                detail=f"killed after {self.timeout:g}s wall-clock; "
                "worker recycled",
                seconds=seconds,
            )
        if not self.process.is_alive():
            message = self._try_recv()
            if message is not None:
                # Sent then died: the result wins, but the slot still
                # needs a fresh process for its next job.
                self._recycle()
                return self._finish(message)
            self.process.join()
            exitcode = self.process.exitcode
            seconds = self.elapsed()
            self._recycle()
            self.busy = False
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
        self.busy = False
        self.jobs_done += 1
        return AttemptOutcome(
            status=message.get("status", OUTCOME_ERROR),
            payload=message.get("payload"),
            detail=message.get("detail", ""),
            seconds=self.elapsed(),
        )

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
        """Replace the (dead or killed) process with a fresh one."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.recycles += 1
        self._spawn()

    def abort(self) -> None:
        """Dispatcher hook on interrupt: kill the process, no respawn."""
        self.busy = False
        self._stop_process()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def shutdown(self) -> None:
        """End this slot's life: ask nicely if idle, escalate otherwise."""
        if self.process.is_alive() and not self.busy:
            try:
                self.conn.send({"op": "shutdown"})
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            self.process.join(timeout=self.grace)
        self._stop_process()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


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
        """An idle slot, or ``None`` when every worker is leased."""
        for worker in self.workers:
            if not worker.busy:
                return worker
        return None

    def close(self) -> None:
        """Shut every slot down (idle ones get a clean goodbye first)."""
        for worker in self.workers:
            worker.shutdown()

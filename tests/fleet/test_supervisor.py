"""Supervising one worker process: a lone :class:`PoolWorker` slot as the
parent's handle on a child that reports, fails, crashes or hangs.

These tests fork actual processes (supervision is about real process
lifecycles), so they use aggressive timeouts to stay fast. Each test
drives the first job of a fresh slot; reuse across jobs is pinned in
``test_pool.py``.
"""

import json
import time

import pytest

from repro.fleet import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    ProbeSpec,
)
from repro.fleet.pool import PoolWorker


def wait_for_outcome(worker, deadline=30.0):
    start = time.monotonic()  # lint: allow[DET001] -- test harness real time
    while time.monotonic() - start < deadline:  # lint: allow[DET001] -- ditto
        outcome = worker.poll()
        if outcome is not None:
            return outcome
        time.sleep(0.01)
    worker.abort()
    pytest.fail("worker never produced an outcome")


@pytest.fixture
def worker():
    worker = PoolWorker(0, grace=0.2)
    yield worker
    worker.shutdown()


class TestWorkerHandle:
    def test_ok_worker_reports_payload(self, worker):
        worker.submit(ProbeSpec(value=5), attempt=1, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_OK and outcome.ok
        assert outcome.payload == {"ok": True, "value": 5, "attempt": 1}
        assert outcome.seconds > 0

    def test_job_exception_comes_back_as_error(self, worker):
        worker.submit(ProbeSpec(behavior="fail"), attempt=2, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_ERROR and not outcome.ok
        assert "RuntimeError" in outcome.detail
        assert "attempt 2" in outcome.detail

    def test_dying_worker_is_a_crash_with_exit_code(self, worker):
        dying = worker.process
        worker.submit(ProbeSpec(behavior="crash"), attempt=1, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_CRASH and not outcome.ok
        assert "exit code 23" in outcome.detail
        assert dying.exitcode == 23

    def test_hung_worker_is_killed_at_the_deadline(self, worker):
        hung = worker.process
        worker.submit(
            ProbeSpec(behavior="hang", hang_seconds=60.0),
            attempt=1, timeout=0.4,
        )
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_TIMEOUT
        assert "0.4s" in outcome.detail
        assert outcome.seconds >= 0.4
        assert not hung.is_alive()

    def test_per_job_trace_bundle_is_written(self, worker, tmp_path):
        trace_path = tmp_path / "job.trace.json"
        worker.submit(
            ProbeSpec(value=1), attempt=1, timeout=20.0,
            trace_path=str(trace_path),
        )
        outcome = wait_for_outcome(worker)
        assert outcome.ok
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert events, "trace bundle is empty"

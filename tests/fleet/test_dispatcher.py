"""The dispatcher: retries, quarantine, caching, interrupt, supervision."""

import pytest

from repro.fleet import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    Fleet,
    FleetConfig,
    ProbeSpec,
    ResultCache,
    STATUS_CACHED,
    STATUS_COMPUTED,
    STATUS_QUARANTINED,
    job_key,
    run_attempt_inline,
)
from repro.inject import FaultPlan


def inline_config(**overrides):
    """Fast inline config: no real processes, no real backoff waits."""
    defaults = dict(
        workers=0, max_attempts=3, backoff_base=0.0, backoff_cap=0.0
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def make_fleet(tmp_path, **overrides):
    return Fleet(inline_config(**overrides), ResultCache(tmp_path / "cache"))


class TestConfigValidation:
    @pytest.mark.parametrize("workers", [-1, -2])
    def test_negative_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            FleetConfig(workers=workers)

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout must be positive"):
            FleetConfig(timeout=timeout)

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_max_attempts_below_one_rejected(self, attempts):
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            FleetConfig(max_attempts=attempts)


class TestEngineTier:
    """Cache keys and the report name the tier the jobs actually ran on."""

    def test_scalar_engine_reported_and_keyed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        spec = ProbeSpec(value=5)
        fleet = make_fleet(tmp_path)
        report = fleet.run([spec])
        assert report.engine == "scalar"
        assert report.computed == 1
        assert fleet.cache.get(job_key(spec, engine="scalar")) is not None
        assert fleet.cache.get(job_key(spec, engine="vector")) is None

    def test_invalid_engine_fails_before_any_job(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        fleet = make_fleet(tmp_path)
        with pytest.raises(ValueError, match="unknown engine 'turbo'"):
            fleet.run([ProbeSpec(value=5)])
        assert fleet.cache.stats.stores == 0 and fleet.cache.stats.misses == 0


class TestInline:
    def test_inline_ok(self):
        outcome = run_attempt_inline(ProbeSpec(value=9), attempt=1)
        assert outcome.status == OUTCOME_OK
        assert outcome.payload["value"] == 9

    def test_inline_error(self):
        outcome = run_attempt_inline(ProbeSpec(behavior="fail"), attempt=1)
        assert outcome.status == OUTCOME_ERROR
        assert "RuntimeError" in outcome.detail

    def test_inline_propagates_keyboard_interrupt(self):
        class Interrupting:
            kind = "probe"

            def run(self, attempt=1):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_attempt_inline(Interrupting(), attempt=1)


class TestTerminalOutcomes:
    def test_ok_job_is_computed_and_cached(self, tmp_path):
        fleet = make_fleet(tmp_path)
        spec = ProbeSpec(value=1)
        report = fleet.run([spec])
        (outcome,) = report.outcomes
        assert outcome.status == STATUS_COMPUTED
        assert outcome.ok and outcome.attempts == 1
        assert fleet.cache.get(job_key(spec)) == outcome.payload

    def test_flaky_job_retries_to_success(self, tmp_path):
        fleet = make_fleet(tmp_path)
        report = fleet.run([ProbeSpec(behavior="flaky", succeed_after=3)])
        (outcome,) = report.outcomes
        assert outcome.status == STATUS_COMPUTED and outcome.ok
        assert outcome.attempts == 3
        assert report.retries == 2 and report.errors == 2
        assert len(outcome.failures) == 2  # the two failed attempts, in order
        assert all("RuntimeError" in line for line in outcome.failures)

    def test_poisoned_job_is_quarantined_with_reproducer(self, tmp_path):
        fleet = make_fleet(tmp_path, max_attempts=2)
        spec = ProbeSpec(behavior="fail")
        report = fleet.run([spec])
        (outcome,) = report.outcomes
        assert outcome.status == STATUS_QUARANTINED and not outcome.ok
        assert outcome.attempts == 2
        assert len(outcome.failures) == 2
        assert outcome.reproducer  # one-line rerun command
        assert job_key(spec) not in fleet.cache  # never cached
        assert not report.ok

    def test_duplicate_specs_collapse_to_one_cell(self, tmp_path):
        fleet = make_fleet(tmp_path)
        spec = ProbeSpec(value=4)
        report = fleet.run([spec, ProbeSpec(value=4), spec])
        assert report.jobs == 1


class TestResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        specs = [ProbeSpec(value=n) for n in range(5)]
        make_fleet(tmp_path).run(specs)

        fleet = make_fleet(tmp_path)
        report = fleet.run(specs)
        assert report.cached == 5 and report.computed == 0
        assert all(o.status == STATUS_CACHED for o in report.outcomes)
        assert fleet.cache.stats.hits == 5 and fleet.cache.stats.stores == 0

    def test_interrupted_sweep_resumes_without_recomputing(self, tmp_path):
        """SIGINT mid-sweep (here: KeyboardInterrupt from the progress
        callback) checkpoints completed cells; re-invoking finishes only
        the remainder."""
        specs = [ProbeSpec(value=n) for n in range(6)]

        def interrupt_after_two(report, outcome):
            if len(report.outcomes) == 2:
                raise KeyboardInterrupt

        first = make_fleet(tmp_path)
        partial = first.run(specs, progress=interrupt_after_two)
        assert partial.interrupted and not partial.ok
        assert partial.jobs == 2
        assert first.cache.stats.stores == 2

        second = make_fleet(tmp_path)
        resumed = second.run(specs)
        assert not resumed.interrupted and resumed.ok
        assert resumed.jobs == 6
        assert resumed.cached == 2 and resumed.computed == 4
        assert second.cache.stats.stores == 4  # only the remainder ran

    def test_corrupted_entry_is_detected_and_recomputed(self, tmp_path):
        spec = ProbeSpec(value=7)
        first = make_fleet(tmp_path)
        first.run([spec])
        path = first.cache.path_for(job_key(spec))
        path.write_text("corrupted by a crash mid-write")

        fleet = make_fleet(tmp_path)
        report = fleet.run([spec])
        (outcome,) = report.outcomes
        assert outcome.status == STATUS_COMPUTED  # recomputed, not served
        assert report.cache["corrupt_evicted"] == 1
        assert fleet.cache.get(job_key(spec)) == outcome.payload  # healed


class TestInjectedFaults:
    def test_injected_crashes_retry_then_succeed(self, tmp_path):
        plan = FaultPlan(seed=1)
        plan.worker_crash(on_calls={1, 2})  # first two launches die
        fleet = make_fleet(tmp_path, fault_plan=plan)
        report = fleet.run([ProbeSpec(value=1)])
        (outcome,) = report.outcomes
        assert outcome.status == STATUS_COMPUTED and outcome.attempts == 3
        assert report.crashes == 2 and report.injected_crashes == 2

    def test_injected_hang_counts_as_timeout(self, tmp_path):
        plan = FaultPlan(seed=1)
        plan.worker_crash(hang=True, on_calls={1})
        fleet = make_fleet(tmp_path, fault_plan=plan)
        report = fleet.run([ProbeSpec(value=1)])
        assert report.timeouts == 1 and report.injected_hangs == 1
        assert report.outcomes[0].status == STATUS_COMPUTED

    def test_relentless_injection_quarantines(self, tmp_path):
        plan = FaultPlan(seed=1)
        plan.worker_crash()  # every launch dies
        fleet = make_fleet(tmp_path, max_attempts=3, fault_plan=plan)
        report = fleet.run([ProbeSpec(value=1)])
        (outcome,) = report.outcomes
        assert outcome.status == STATUS_QUARANTINED
        assert report.injected_crashes == 3
        assert "injected crash" in outcome.failures[0]


class TestBackoffDeterminism:
    def test_same_seed_same_failure_history(self, tmp_path):
        def failures(seed, run):
            plan = FaultPlan(seed=seed)
            plan.worker_crash(probability=0.5)
            fleet = make_fleet(
                tmp_path / f"{seed}-{run}", seed=seed, fault_plan=plan
            )
            report = fleet.run([ProbeSpec(value=n) for n in range(8)])
            return [(o.label, o.status, o.attempts) for o in report.outcomes]

        assert failures(3, run=1) == failures(3, run=2)


class TestWorkers:
    """The real multiprocessing path: crashes, hangs, results."""

    def test_mixed_fleet_under_supervision(self, tmp_path):
        config = FleetConfig(
            workers=2, timeout=1.0, grace=0.3, max_attempts=2,
            backoff_base=0.001, backoff_cap=0.01,
        )
        fleet = Fleet(config, ResultCache(tmp_path / "cache"))
        report = fleet.run(
            [
                ProbeSpec(value=10),
                ProbeSpec(behavior="crash", value=11),
                ProbeSpec(behavior="hang", hang_seconds=60.0, value=12),
                ProbeSpec(behavior="flaky", succeed_after=2, value=13),
            ]
        )
        assert report.jobs == 4
        assert all(o.terminal for o in report.outcomes)
        assert report.computed == 2 and report.quarantined == 2
        assert report.crashes == 2  # crash probe, twice
        assert report.timeouts == 2  # hang probe, twice
        by_label = {o.label: o for o in report.outcomes}
        assert by_label["probe:ok/10"].ok
        assert by_label["probe:flaky/13"].attempts == 2
        assert not by_label["probe:crash/11"].ok
        assert "killed after" in by_label["probe:hang/12"].failures[0]

    def test_worker_results_land_in_the_cache(self, tmp_path):
        config = FleetConfig(workers=2, timeout=20.0)
        specs = [ProbeSpec(value=n) for n in range(3)]
        Fleet(config, ResultCache(tmp_path / "cache")).run(specs)
        reread = ResultCache(tmp_path / "cache")
        for spec in specs:
            payload = reread.get(job_key(spec))
            assert payload == {"ok": True, "value": spec.value, "attempt": 1}


class TestTraceIntegration:
    def test_fleet_run_publishes_spans_and_counters(self, tmp_path):
        from repro.trace import TraceSession, tracing

        session = TraceSession()
        with tracing(session):
            make_fleet(tmp_path).run([ProbeSpec(value=1)])
        names = [e.name for e in session.events]
        assert "fleet.run" in names
        assert "fleet-verdict" in names
        assert "fleet-job" in names
        assert session.metrics.get("fleet.computed") == 1.0
        assert session.metrics.get("fleet.jobs") == 1.0


class TestReportShapes:
    def test_report_round_trips_through_json(self, tmp_path):
        import json

        fleet = make_fleet(tmp_path, max_attempts=1)
        report = fleet.run([ProbeSpec(value=1), ProbeSpec(behavior="fail")])
        data = json.loads(json.dumps(report.to_dict()))
        assert data == report.to_dict()
        assert data["schema"] == "repro-fleet-report/1"
        assert data["jobs"] == report.jobs == 2
        assert data["quarantined"] == report.quarantined == 1
        assert [o["status"] for o in data["outcomes"]] == [
            STATUS_COMPUTED, STATUS_QUARANTINED
        ]

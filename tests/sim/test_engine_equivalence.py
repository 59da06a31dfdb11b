"""Differential equivalence: the vector tier is the scalar tier, faster.

The engine contract (docs/performance.md) is *bit-identical* metrics:
every integer counter exact, every cycle sum float-equal, across
workloads, machine sizes, seeds, THP, AutoNUMA, replication, migration,
fault injection and tracing. These tests run both tiers on fresh,
identically-built scenarios and compare the full metrics surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.inject.plan import FaultPlan, install_fault_plan
from repro.kernel.autonuma import AutoNuma
from repro.sim.bench import RUN_FIELDS, THREAD_FIELDS
from repro.sim.engine import EngineConfig, Simulator, _chain_sum
from repro.sim.scenario import run_migration, run_multisocket, setup_migration, setup_multisocket
from repro.trace.session import TraceSession, start_tracing, stop_tracing
from repro.units import MIB

FOOTPRINT = 16 * MIB


def assert_metrics_identical(scalar, vector):
    """Full-surface equality with a field-precise failure message."""
    assert len(scalar.threads) == len(vector.threads)
    for ts, tv in zip(scalar.threads, vector.threads):
        for name in THREAD_FIELDS:
            assert getattr(ts, name) == getattr(tv, name), (
                f"thread {ts.thread}: {name} scalar={getattr(ts, name)!r} "
                f"vector={getattr(tv, name)!r}"
            )
    for name in RUN_FIELDS:
        assert getattr(scalar, name) == getattr(vector, name), (
            f"run: {name} scalar={getattr(scalar, name)!r} "
            f"vector={getattr(vector, name)!r}"
        )


def engine_config(engine, **kwargs):
    kwargs.setdefault("accesses_per_thread", 2500)
    return EngineConfig(engine=engine, **kwargs)


def run_setup(setup, config):
    sim = Simulator(setup.kernel, config)
    sockets = [t.socket for t in setup.process.threads]
    return sim.run(setup.process, setup.workload, sockets, setup.va_base)


class TestMatrix:
    """3 workloads x 2 machine presets x 2 seeds (acceptance matrix)."""

    @pytest.mark.parametrize("workload", ["gups", "redis", "memcached"])
    @pytest.mark.parametrize("n_sockets", [2, 4])
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_multisocket(self, workload, n_sockets, seed):
        results = {
            engine: run_multisocket(
                workload, "F", footprint=FOOTPRINT, n_sockets=n_sockets,
                engine=engine_config(engine), seed=seed,
            )
            for engine in ("scalar", "vector")
        }
        assert_metrics_identical(results["scalar"].metrics, results["vector"].metrics)


class TestConfigurations:
    """The placement/feature axes beyond the plain matrix."""

    def test_thp_with_replication(self):
        results = {
            engine: run_multisocket(
                "gups", "F+M", thp=True, footprint=FOOTPRINT, n_sockets=2,
                engine=engine_config(engine),
            )
            for engine in ("scalar", "vector")
        }
        assert_metrics_identical(results["scalar"].metrics, results["vector"].metrics)

    def test_autonuma_sampling(self):
        results = {
            engine: run_multisocket(
                "memcached", "F-A", footprint=FOOTPRINT, n_sockets=2,
                engine=engine_config(engine),
            )
            for engine in ("scalar", "vector")
        }
        assert_metrics_identical(results["scalar"].metrics, results["vector"].metrics)

    def test_autonuma_samples_every_64th_slice_index(self, monkeypatch):
        """Both tiers hint AutoNUMA at exactly the slice indices ≡ 0 mod 64,
        batched runs included: 2,500 accesses in 4 epochs makes slices of
        625, so slice and stream indices disagree after the first."""
        calls = []
        record_access = AutoNuma.record_access

        def spy(self, process, va, socket):
            calls.append((va, socket))
            record_access(self, process, va, socket)

        monkeypatch.setattr(AutoNuma, "record_access", spy)
        sampled, batched = {}, {}
        for engine in ("scalar", "vector"):
            calls.clear()
            setup = setup_multisocket("gups", "F-A", thp=True, footprint=FOOTPRINT, n_sockets=2)
            metrics = run_setup(setup, engine_config(engine, autonuma_epochs=4))
            sampled[engine] = list(calls)
            batched[engine] = sum(
                t.accesses - t.escape_l1_miss - t.escape_bailout for t in metrics.threads
            )
        # Both set-ups are identical, so either one regenerates the streams.
        threads = setup.process.threads
        streams = [
            setup.workload.offsets(t, len(threads), 2500) + setup.va_base
            for t in range(len(threads))
        ]
        expected = [
            (int(streams[t][lo + j]), thread.socket)
            for lo in range(0, 2500, 625)
            for t, thread in enumerate(threads)
            for j in range(0, 625, 64)
        ]
        assert sampled["scalar"] == expected
        assert sampled["vector"] == expected
        # The vector tier sampled inside batched hit runs too.
        assert batched["vector"] > 0

    def test_interleave(self):
        results = {
            engine: run_multisocket(
                "stream", "I", footprint=FOOTPRINT, n_sockets=2,
                engine=engine_config(engine),
            )
            for engine in ("scalar", "vector")
        }
        assert_metrics_identical(results["scalar"].metrics, results["vector"].metrics)

    def test_migration_with_interference(self):
        results = {
            engine: run_migration(
                "gups", "RPI-LD", mitosis=True, footprint=FOOTPRINT,
                engine=engine_config(engine),
            )
            for engine in ("scalar", "vector")
        }
        assert_metrics_identical(results["scalar"].metrics, results["vector"].metrics)


class TestFaultInjection:
    def _run(self, engine):
        setup = setup_migration("redis", "LP-RD", footprint=FOOTPRINT)
        plan = FaultPlan(seed=5)
        plan.swap_stall(probability=0.5)
        install_fault_plan(setup.kernel, plan)
        setup.kernel.swap.reclaim(setup.process, target_pages=256)
        return run_setup(setup, engine_config(engine))

    def test_major_faults_with_injected_stalls(self):
        scalar = self._run("scalar")
        vector = self._run("vector")
        # The scenario must actually exercise the fault path.
        assert scalar.faults_injected > 0
        assert sum(t.faults for t in scalar.threads) > 0
        assert_metrics_identical(scalar, vector)


class TestTracing:
    def _run(self, engine):
        setup = setup_multisocket("memcached", "F", footprint=FOOTPRINT, n_sockets=2)
        session = start_tracing(TraceSession(sinks=()))
        try:
            metrics = run_setup(setup, engine_config(engine))
        finally:
            stop_tracing()
        return metrics, session

    def test_traced_runs_match_metrics_and_counters(self):
        scalar, scalar_session = self._run("scalar")
        vector, vector_session = self._run("vector")
        assert_metrics_identical(scalar, vector)
        # The observability surface must agree too: same counter values
        # (walk spans, eviction counts, ...) from both tiers. The single
        # exception is the bail-out diagnostic — it counts the vector
        # tier's *scheduling* decisions (hits ceded to the escape
        # interpreter), not machine state, and is 0 on the scalar tier.
        scalar_counters = dict(scalar_session.metrics.counters)
        vector_counters = dict(vector_session.metrics.counters)
        assert scalar_counters.pop("perf.engine.escape_bailout") == 0
        assert vector_counters.pop("perf.engine.escape_bailout") >= 0
        assert scalar_counters == vector_counters
        assert scalar_counters  # non-trivial session


class TestCombinedEscapeMatrix:
    """The batched-escape acceptance cells: every escape class at once.

    Faults (working set partly swapped + seeded stall plan), a live
    TraceSession, and replication/migration in the same run — the
    configurations that used to force the vector tier fully scalar and
    now run on the batched escape interpreter. Metrics must stay
    bit-identical."""

    def _run_replicated(self, engine):
        setup = setup_multisocket("redis", "F+M", footprint=FOOTPRINT, n_sockets=2)
        plan = FaultPlan(seed=5)
        plan.swap_stall(probability=0.5)
        install_fault_plan(setup.kernel, plan)
        setup.kernel.swap.reclaim(setup.process, target_pages=256)
        session = start_tracing(TraceSession(sinks=()))
        try:
            metrics = run_setup(setup, engine_config(engine))
        finally:
            stop_tracing()
        return metrics, session

    def _run_migrated(self, engine):
        setup = setup_migration("redis", "LP-RD", mitosis=True, footprint=FOOTPRINT)
        plan = FaultPlan(seed=5)
        plan.swap_stall(probability=0.5)
        install_fault_plan(setup.kernel, plan)
        setup.kernel.swap.reclaim(setup.process, target_pages=256)
        session = start_tracing(TraceSession(sinks=()))
        try:
            metrics = run_setup(setup, engine_config(engine))
        finally:
            stop_tracing()
        return metrics, session

    def test_faults_tracing_replication_combined(self):
        scalar, _ = self._run_replicated("scalar")
        vector, _ = self._run_replicated("vector")
        # All three escape classes must actually fire in this cell.
        assert sum(t.faults for t in scalar.threads) > 0
        assert scalar.faults_injected > 0
        assert scalar.escape_counts["trace"] > 0
        assert_metrics_identical(scalar, vector)

    def test_faults_tracing_migration_combined(self):
        scalar, _ = self._run_migrated("scalar")
        vector, _ = self._run_migrated("vector")
        assert sum(t.faults for t in scalar.threads) > 0
        assert_metrics_identical(scalar, vector)


class TestTraceStreamIdentity:
    """Both tiers record each walk's span where the walk ends, through
    one function, so the vector tier's record stream must be the scalar
    tier's: names, categories, payloads, virtual-clock timestamps and
    durations (docs/observability.md). So must the session's metric
    registry: every counter but the bail-out count, and every histogram's
    bucket counts, total, minimum and maximum."""

    def _trace(self, engine, build):
        setup = build()
        session = start_tracing(TraceSession(sinks=(), capacity=1 << 20))
        try:
            run_setup(setup, engine_config(engine))
        finally:
            stop_tracing()
        assert session.dropped == 0
        registry = session.metrics
        assert registry.histograms["walker.walk_cycles"].count > 0
        counters = dict(registry.counters)
        # The vector tier's scheduling diagnostic, 0 on the scalar tier by
        # construction (TestEscapeCounters); every other counter is a
        # machine fact.
        del counters["perf.engine.escape_bailout"]
        metrics = (
            counters,
            {
                name: (h.counts, h.total, h.min, h.max)
                for name, h in registry.histograms.items()
            },
        )
        return [event.to_dict() for event in session.events], metrics

    def test_traced_walk_stream_identical(self):
        build = lambda: setup_multisocket(
            "memcached", "F", footprint=FOOTPRINT, n_sockets=2
        )
        scalar_events, scalar_metrics = self._trace("scalar", build)
        vector_events, vector_metrics = self._trace("vector", build)
        assert any(e["name"] == "walk" for e in scalar_events)
        assert scalar_events == vector_events
        assert scalar_metrics == vector_metrics

    def test_stream_identical_with_faults_interleaved(self):
        """Fault instants fire mid-slice between walk spans; inline
        emission must reproduce the scalar interleaving."""

        def build():
            setup = setup_migration("redis", "LP-RD", footprint=FOOTPRINT)
            plan = FaultPlan(seed=5)
            plan.swap_stall(probability=0.5)
            install_fault_plan(setup.kernel, plan)
            setup.kernel.swap.reclaim(setup.process, target_pages=256)
            return setup

        scalar_events, scalar_metrics = self._trace("scalar", build)
        vector_events, vector_metrics = self._trace("vector", build)
        assert any(e["name"] == "walk" for e in scalar_events)
        assert any(
            e["name"] == "fault" and e["cat"] == "inject" for e in scalar_events
        )
        assert scalar_events == vector_events
        assert scalar_metrics == vector_metrics

    def test_stream_identical_with_replication_epochs(self):
        def build():
            return setup_multisocket(
                "gups", "F+M", thp=True, footprint=FOOTPRINT, n_sockets=2
            )

        scalar_events, scalar_metrics = self._trace("scalar", build)
        vector_events, vector_metrics = self._trace("vector", build)
        assert scalar_events == vector_events
        assert scalar_metrics == vector_metrics


class TestEscapeCounters:
    """Per-reason escape accounting (ThreadMetrics.escape_*): l1_miss /
    fault / trace are machine facts on the equivalence surface (checked
    field-by-field by every assert_metrics_identical above); bailout is
    the vector tier's scheduling diagnostic."""

    def _run(self, engine, traced=False):
        setup = setup_migration("redis", "LP-RD", footprint=FOOTPRINT)
        plan = FaultPlan(seed=5)
        plan.swap_stall(probability=0.5)
        install_fault_plan(setup.kernel, plan)
        setup.kernel.swap.reclaim(setup.process, target_pages=256)
        if not traced:
            return run_setup(setup, engine_config(engine))
        start_tracing(TraceSession(sinks=()))
        try:
            return run_setup(setup, engine_config(engine))
        finally:
            stop_tracing()

    def test_reason_counters_are_machine_facts(self):
        scalar = self._run("scalar")
        vector = self._run("vector")
        counts = scalar.escape_counts
        walks = sum(t.tlb_walks for t in scalar.threads)
        faults = sum(t.faults for t in scalar.threads)
        # Every walk is an L1 miss (and then some: L2 hits miss L1 too).
        assert counts["l1_miss"] >= walks > 0
        assert counts["fault"] == faults > 0
        assert counts["trace"] == 0  # untraced run
        assert counts["bailout"] == 0  # the scalar tier has no batcher to bail from
        for reason in ("l1_miss", "fault", "trace"):
            assert vector.escape_counts[reason] == counts[reason]

    def test_trace_class_counts_walks_under_live_session(self):
        for engine in ("scalar", "vector"):
            metrics = self._run(engine, traced=True)
            walks = sum(t.tlb_walks for t in metrics.threads)
            assert metrics.escape_counts["trace"] == walks > 0

    def test_perf_counters_expose_escape_reasons(self):
        from repro.sim.perfcounters import perf_stat

        metrics = self._run("vector")
        report = perf_stat(metrics)
        counts = metrics.escape_counts
        assert report["engine.escape_l1_miss"] == float(counts["l1_miss"])
        assert report["engine.escape_fault"] == float(counts["fault"])
        assert report["engine.escape_trace"] == float(counts["trace"])
        assert report["engine.escape_bailout"] == float(counts["bailout"])


class TestMidRunInvalidation:
    """Epoch callbacks that mutate translations mid-run: the generation
    bump must force the vector tier to re-resolve (stale batched
    translations are impossible — docs/performance.md)."""

    def _run(self, engine):
        setup = setup_multisocket("gups", "F", footprint=FOOTPRINT, n_sockets=2)
        kernel, process = setup.kernel, setup.process

        def flip_replication(epoch, _metrics):
            if kernel.mitosis.get_replication_mask(process):
                kernel.mitosis.set_replication_mask(process, None)
            else:
                kernel.mitosis.set_replication_mask(process, frozenset({0, 1}))

        config = engine_config(engine, epochs=4, epoch_callback=flip_replication)
        return run_setup(setup, config)

    def test_replication_flips_between_epochs(self):
        assert_metrics_identical(self._run("scalar"), self._run("vector"))


class TestEngineSelection:
    def test_invalid_engine_rejected(self, kernel2):
        with pytest.raises(ValueError, match="engine"):
            Simulator(kernel2, EngineConfig(engine="simd"))

    def test_env_var_selects_engine(self, kernel2, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        assert Simulator(kernel2, EngineConfig()).engine == "scalar"
        monkeypatch.delenv("REPRO_ENGINE")
        assert Simulator(kernel2, EngineConfig()).engine == "vector"

    def test_config_beats_env(self, kernel2, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        assert Simulator(kernel2, EngineConfig(engine="vector")).engine == "vector"


class TestResidencyLut:
    """Both LUT representations must agree (dense is an optimization)."""

    def _pairs(self, vpns, frames_per_node=100):
        return [(vpn, (vpn % 7) * frames_per_node + 3) for vpn in vpns]

    @pytest.mark.parametrize("spread", [1, 1 << 16])  # dense / sparse
    def test_contains_and_nodes(self, spread):
        from repro.sim.engine import _LUT_SPAN_MAX, _ResidencyLut

        resident = [5 * spread, 9 * spread, 12 * spread, 700 * spread]
        span = resident[-1] - resident[0] + 1
        assert (span <= _LUT_SPAN_MAX) == (spread == 1)  # both arms covered
        lut = _ResidencyLut(self._pairs(resident[::-1]), frames_per_node=100)
        probe = np.asarray(
            resident + [0, 6 * spread, 12 * spread + 1, 701 * spread], dtype=np.int64
        )
        slots = lut.slots(probe)
        assert slots.tolist() == [0, 1, 2, 3] + [-1] * 4
        assert lut.vpns_sorted[slots[:4]].tolist() == resident
        assert lut.nodes_sorted[slots[:4]].tolist() == [vpn % 7 for vpn in resident]

    def test_empty_lut_contains_nothing(self):
        from repro.sim.engine import _ResidencyLut

        lut = _ResidencyLut([], frames_per_node=100)
        assert lut.slots(np.asarray([0, 1, 2], dtype=np.int64)).tolist() == [-1, -1, -1]


class TestChainSum:
    """The float-fold primitive behind bit-identical cycle sums: one
    ``[carry, c0, c1, ...]`` buffer, folded left to right."""

    def test_matches_sequential_python_fold(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(1.0, 700.0, size=10_001)
        carry = 1234.5678
        expected = carry
        for cost in costs:
            expected += cost
        assert _chain_sum(np.concatenate(([carry], costs))) == expected
        # Pairwise summation rounds differently on this input, so the
        # check above pins the sequential fold.
        assert float(np.sum(np.concatenate(([carry], costs)))) != expected

    def test_empty_run_returns_carry(self):
        assert _chain_sum(np.array([42.25])) == 42.25

"""Simulator engine: cost attribution, cache interplay and the rolls
each tier receives."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.kernel.policy import FixedNodePolicy
from repro.sim.bench import _build_gups
from repro.sim.engine import EngineConfig, Simulator
from repro.sim.scenario import setup_migration
from repro.units import KIB, MIB
from repro.workloads.registry import create

FOOTPRINT = 16 * MIB


def build(kernel, pt_socket, data_socket, workload_name="gups"):
    process = kernel.create_process(
        workload_name,
        socket=0,
        pt_policy=FixedNodePolicy(pt_socket),
        data_policy=FixedNodePolicy(data_socket),
    )
    workload = create(workload_name, footprint=FOOTPRINT)
    va = kernel.sys_mmap(process, FOOTPRINT).value
    pos = va
    while pos < va + FOOTPRINT:
        result = kernel.fault_handler.handle(process, pos, 0, is_write=True, allow_huge=False)
        pos += max(result.mapped_bytes, 4096)
    return process, workload, va


def run(kernel, process, workload, va, accesses=4000, **cfg):
    config = EngineConfig(accesses_per_thread=accesses, **cfg)
    return Simulator(kernel, config).run(process, workload, [0], va)


class TestCostAttribution:
    def test_remote_pt_costs_more_than_local(self, kernel2):
        p_local, w, va = build(kernel2, pt_socket=0, data_socket=0)
        local = run(kernel2, p_local, w, va)
        p_remote, w2, va2 = build(kernel2, pt_socket=1, data_socket=0)
        remote = run(kernel2, p_remote, w2, va2)
        assert remote.runtime_cycles > local.runtime_cycles * 1.3
        assert remote.walk_cycles > local.walk_cycles * 1.5
        # data cost identical: only the walk component moved
        assert remote.threads[0].data_cycles == pytest.approx(local.threads[0].data_cycles, rel=0.01)

    def test_remote_data_costs_more_than_local(self, kernel2):
        p_local, w, va = build(kernel2, pt_socket=0, data_socket=0)
        local = run(kernel2, p_local, w, va)
        p_remote, w2, va2 = build(kernel2, pt_socket=0, data_socket=1)
        remote = run(kernel2, p_remote, w2, va2)
        assert remote.threads[0].data_cycles > local.threads[0].data_cycles * 1.5
        assert remote.walk_cycles == pytest.approx(local.walk_cycles, rel=0.05)

    def test_interference_inflates_hogged_node_cost(self, kernel2):
        p, w, va = build(kernel2, pt_socket=1, data_socket=0)
        quiet = run(kernel2, p, w, va)
        kernel2.contention.hog(1)
        noisy = run(kernel2, p, w, va)
        assert noisy.walk_cycles > quiet.walk_cycles * 1.3

    def test_big_footprint_thrashes_tlb(self, kernel2):
        p, w, va = build(kernel2, pt_socket=0, data_socket=0)
        metrics = run(kernel2, p, w, va)
        assert metrics.tlb_miss_rate > 0.7  # 16 MiB >> 4.3 MiB reach

    def test_walk_fraction_meaningful(self, kernel2):
        p, w, va = build(kernel2, pt_socket=0, data_socket=0)
        metrics = run(kernel2, p, w, va)
        assert 0.2 < metrics.walk_cycle_fraction < 0.95


class TestCacheInterplay:
    def test_bigger_pt_llc_reduces_walk_cycles(self, kernel2):
        p, w, va = build(kernel2, pt_socket=1, data_socket=0)
        tiny = run(kernel2, p, w, va, pt_llc_bytes=1 * KIB)
        huge = run(kernel2, p, w, va, pt_llc_bytes=1 * MIB)
        assert huge.walk_cycles < tiny.walk_cycles * 0.7

    def test_demand_faults_serviced_and_counted(self, kernel2):
        process = kernel2.create_process("lazy", socket=0)
        workload = create("gups", footprint=4 * MIB)
        va = kernel2.sys_mmap(process, 4 * MIB).value  # NOT populated
        metrics = run(kernel2, process, workload, va, accesses=2000)
        assert metrics.threads[0].faults > 0
        assert metrics.threads[0].fault_cycles > 0
        assert process.mm.tree.translate(va) is not None or metrics.threads[0].faults > 0

    def test_sequential_workload_barely_walks(self, kernel2):
        process = kernel2.create_process("seq", socket=0)
        workload = create("stream", footprint=4 * MIB)
        va = kernel2.sys_mmap(process, 4 * MIB, populate=True).value
        metrics = run(kernel2, process, workload, va, accesses=4000)
        # 64 accesses per page -> miss rate ~1/64
        assert metrics.tlb_miss_rate < 0.1


class TestRolls:
    """``Simulator.run`` draws every thread's rolls before either tier
    runs, so the equivalence suite cannot see a shifted draw: both tiers
    would receive the same wrong rolls. These tests pin the draw itself
    against an eager reference: every thread's hit rolls in thread
    order, then every thread's pollution rolls. At pressure 0 no
    pollution roll can fire, and none is drawn."""

    SEED = 11
    ACCESSES = 3000

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    @pytest.mark.parametrize("pressure", [0.0, 0.35])
    def test_rolls_each_tier_receives(self, kernel2, monkeypatch, engine, pressure):
        received = {}
        method = "_run_thread" if engine == "scalar" else "_run_thread_vector"
        original = getattr(Simulator, method)

        def spy(self, *args):
            *_, hit_rolls, pollution_rolls, _mlp, out = args
            received.setdefault(out.thread, []).append((hit_rolls.copy(), pollution_rolls.copy()))
            return original(self, *args)

        monkeypatch.setattr(Simulator, method, spy)
        process = kernel2.create_process("rolls", socket=0)
        process.add_thread(1)
        workload = create("gups", footprint=4 * MIB)
        workload.profile = replace(workload.profile, pt_llc_pressure=pressure)
        va = kernel2.sys_mmap(process, 4 * MIB, populate=True).value
        config = EngineConfig(
            accesses_per_thread=self.ACCESSES, epochs=3, seed=self.SEED, engine=engine
        )
        Simulator(kernel2, config).run(process, workload, [0, 1], va)

        rng = np.random.default_rng(self.SEED)
        rate = workload.profile.data_llc_hit_rate
        hits = [rng.random(self.ACCESSES) < rate for _ in range(2)]
        pollution = [rng.random(self.ACCESSES) < pressure for _ in range(2)]
        assert sorted(received) == [0, 1]
        for thread in (0, 1):
            slices = received[thread]
            assert len(slices) == 3
            got_hits = np.concatenate([h for h, _ in slices])
            got_pollution = np.concatenate([p for _, p in slices])
            assert np.array_equal(got_hits, hits[thread])
            assert np.array_equal(got_pollution, pollution[thread])
            assert got_pollution.any() == (pressure > 0)


class TestStreamMemory:
    """``Simulator.run`` builds its streams without stream-sized
    temporaries: the workload's offsets are rebased in place and the
    rolls are drawn in fixed-size blocks. A one-thread GUPS run under
    THP (nearly every access batched) keeps 11 bytes per access: the
    int64 addresses and three boolean masks (stores, hit rolls,
    pollution rolls). Any one extra 8-byte-per-access temporary (a
    rebased copy of the offsets, an unscaled page draw, the float64 rolls
    of one ``rng.random(n) < p``) takes the traced peak to 16 to 18
    bytes per access."""

    ACCESSES = 1_000_000

    @staticmethod
    def traced_peak(accesses: int) -> int:
        setup = setup_migration("gups", "LP-LD", thp=True, footprint=64 * MIB, seed=3)
        config = EngineConfig(accesses_per_thread=accesses, tlb=_build_gups(1)[1].tlb, seed=3)
        simulator = Simulator(setup.kernel, config)
        sockets = [t.socket for t in setup.process.threads]
        tracemalloc.start()
        try:
            simulator.run(setup.process, setup.workload, sockets, setup.va_base)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_traced_bytes_per_access(self):
        self.traced_peak(1000)  # imports and caches a first run makes
        assert self.traced_peak(self.ACCESSES) < 14 * self.ACCESSES


class TestMultiThread:
    def test_runtime_is_slowest_thread(self, kernel4):
        process = kernel4.create_process("mt", socket=0)
        for s in (1, 2, 3):
            process.add_thread(s)
        workload = create("xsbench", footprint=FOOTPRINT)
        va = kernel4.sys_mmap(process, FOOTPRINT, populate=True).value
        config = EngineConfig(accesses_per_thread=2000)
        metrics = Simulator(kernel4, config).run(process, workload, [0, 1, 2, 3], va)
        assert len(metrics.threads) == 4
        assert metrics.runtime_cycles == pytest.approx(
            max(t.total_cycles for t in metrics.threads), rel=1e-9
        )

    def test_contexts_registered_for_shootdown(self, kernel2):
        p, w, va = build(kernel2, pt_socket=0, data_socket=0)
        run(kernel2, p, w, va, accesses=100)
        assert len(kernel2.cpu_contexts) == 1


class TestRobustnessSync:
    def test_chaos_run_syncs_counters_and_daemon_recovers(self, kernel2):
        """Full-stack arc: injected per-socket OOM degrades replication,
        the daemon (as epoch callback) completes the mask mid-run, and the
        engine mirrors fault/resilience counters into the metrics."""
        from repro.inject import FaultPlan, install_fault_plan, verify_kernel
        from repro.mitosis.daemon import MitosisDaemon

        process = kernel2.create_process("chaotic", socket=0)
        process.add_thread(1)
        workload = create("gups", footprint=4 * MIB)
        va = kernel2.sys_mmap(process, 4 * MIB, populate=True).value

        plan = FaultPlan(seed=7)
        plan.pagecache_oom(node=1, limit=2)
        install_fault_plan(kernel2, plan)
        kernel2.mitosis.set_replication_mask(process, frozenset({0, 1}))
        assert process.mm.degraded is not None  # faults 1+2 degraded it

        daemon = MitosisDaemon(manager=kernel2.mitosis, process=process)
        config = EngineConfig(
            accesses_per_thread=1200, epochs=3, epoch_callback=daemon.callback()
        )
        metrics = Simulator(kernel2, config).run(process, workload, [0, 1], va)

        assert process.mm.degraded is None
        assert process.mm.replication_mask == frozenset({0, 1})
        assert "complete-mask" in [d.action for d in daemon.decisions]
        assert metrics.faults_injected == 2
        assert metrics.degradations == 1
        assert metrics.retries == 1
        assert metrics.recoveries == 1
        report = verify_kernel(kernel2)
        assert report.ok, report.render()

    def test_counters_zero_without_plan(self, kernel2):
        p, w, va = build(kernel2, pt_socket=0, data_socket=0)
        metrics = run(kernel2, p, w, va, accesses=200)
        assert metrics.faults_injected == 0
        assert metrics.degradations == 0

"""The vector tier's batch verdict, both ways.

Until a thread first batches, each of its slices runs its first
``_CHUNK_MIN`` accesses as one escape span; a slice where fewer than a
quarter of them hit the L1 TLB runs the rest as one more escape span and
never builds a residency snapshot. These tests pin both sides of that
decision: a walk-bound fig9-canneal slice skips the batch machinery (and
still matches the scalar tier), while the GUPS fast-path scenario and a
warm second epoch keep batching.
"""

from __future__ import annotations

import pytest

from repro.sim.bench import _build_gups, metrics_equal
from repro.sim.engine import _CHUNK_MIN, EngineConfig, Simulator
from repro.sim.metrics import RunMetrics
from repro.sim.scenario import setup_multisocket
from repro.tlb.tlb import TlbHierarchy
from repro.units import MIB


def run_setup(setup, config: EngineConfig) -> RunMetrics:
    sim = Simulator(setup.kernel, config)
    sockets = [t.socket for t in setup.process.threads]
    return sim.run(setup.process, setup.workload, sockets, setup.va_base)


def batched(metrics: RunMetrics) -> tuple[int, int]:
    """``(accesses resolved by batched hit runs, accesses)``."""
    threads = metrics.threads
    accesses = sum(t.accesses for t in threads)
    escaped = sum(t.escape_l1_miss + t.escape_bailout for t in threads)
    return accesses - escaped, accesses


@pytest.fixture
def snapshot_calls(monkeypatch):
    """Counts ``TlbHierarchy.fastpath_snapshot`` calls."""
    calls = []
    original = TlbHierarchy.fastpath_snapshot

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TlbHierarchy, "fastpath_snapshot", counted)
    return calls


class TestWalkBoundSlice:
    """fig9-canneal's F bar: 4 sockets, 16 MiB of 4 KiB pages, 5,000
    accesses per thread. Nearly every access misses the L1 TLB."""

    @staticmethod
    def _setup():
        return setup_multisocket("canneal", "F", footprint=16 * MIB, n_sockets=4, seed=3)

    def test_no_snapshot_and_scalar_metrics(self, snapshot_calls):
        config = dict(accesses_per_thread=5_000, seed=3)
        vector = run_setup(self._setup(), EngineConfig(engine="vector", **config))
        assert snapshot_calls == []
        scalar = run_setup(self._setup(), EngineConfig(engine="scalar", **config))
        assert metrics_equal(scalar, vector)
        assert batched(vector)[0] == 0


class TestHitDenseSlices:
    def test_gups_scenario_stays_in_the_batch_tier(self, snapshot_calls):
        setup, config = _build_gups(200_000)
        config.engine = "vector"
        fast, accesses = batched(run_setup(setup, config))
        assert snapshot_calls
        assert fast >= 0.998 * accesses, fast / accesses

    def test_warm_second_epoch_batches(self):
        per_epoch = []

        def record(_epoch, metrics):
            per_epoch.append(batched(metrics))

        def run(engine, callback=None):
            setup, config = _build_gups(50_000)
            config.engine = engine
            config.epochs = 2
            config.epoch_callback = callback
            return run_setup(setup, config)

        vector = run("vector", record)
        (first_fast, first_accesses), = per_epoch
        fast, accesses = batched(vector)
        second_fast = fast - first_fast
        second_accesses = accesses - first_accesses
        # Every thread batched in the first epoch, so no second-epoch
        # slice runs a verdict span through its warm TLB.
        assert second_accesses - second_fast < _CHUNK_MIN, (second_fast, second_accesses)
        assert metrics_equal(run("scalar"), vector)

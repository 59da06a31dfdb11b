"""The engine throughput harness (``python -m repro.cli perf``): how
``run_scenario`` schedules its timed repeats."""

from __future__ import annotations

from repro.sim import bench


class TestRunScenario:
    def test_repeats_interleave_tiers_alternating_first(self, monkeypatch):
        """Both tiers sample the host in every repeat, and the tier that
        goes first alternates: a slow spell cannot land on one tier's
        repeats only. Each tier keeps its best time."""
        timed = []
        measure_once = bench._measure_once

        def spy(scenario, engine, accesses):
            elapsed, metrics = measure_once(scenario, engine, accesses)
            elapsed = 1.0 + len(timed)  # later samples are slower
            timed.append((engine, elapsed))
            return elapsed, metrics

        monkeypatch.setattr(bench, "_measure_once", spy)
        monkeypatch.setattr(bench, "_batch_latency", lambda scenario, accesses: {})
        result = bench.run_scenario(bench.SCENARIOS["gups-4socket"], accesses=300, repeat=3)
        assert [engine for engine, _ in timed] == [
            "scalar", "vector", "vector", "scalar", "scalar", "vector",
        ]
        assert result["engines"]["scalar"]["seconds"] == 1.0
        assert result["engines"]["vector"]["seconds"] == 2.0
        assert result["metrics_equal"]

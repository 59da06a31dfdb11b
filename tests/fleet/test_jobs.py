"""Job specs: pickle round-trips, content-addressed keys, grids."""

import dataclasses
import os
import pickle
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fleet.jobs import (
    ProbeSpec,
    canonical_json,
    chaos_grid,
    job_key,
    scenario_grid,
)
from repro.sim.chaos import SCENARIOS as CHAOS_SCENARIOS
from repro.sim.chaos import ChaosSpec
from repro.sim.scenario import ScenarioSpec


class TestSpecRoundTrips:
    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(harness="multisocket", workload="gups", config="F+M"),
            ScenarioSpec(
                harness="migration", workload="btree", config="RPI-LD",
                mitosis=True, thp=True, seed=9, accesses=5_000,
            ),
            ChaosSpec(scenario="replication-oom", seed=3, intensity=2.0),
            ProbeSpec(behavior="flaky", succeed_after=3, value=17),
        ],
        ids=lambda s: s.kind,
    )
    def test_pickle_round_trip(self, spec):
        """A pool worker receives the spec pickled over its pipe: the copy
        must be equal and derive the same cache key."""
        rebuilt = pickle.loads(pickle.dumps(spec))
        assert rebuilt == spec
        assert job_key(rebuilt) == job_key(spec)

    def test_every_registered_kind_satisfies_the_protocol(self):
        classes = (ScenarioSpec, ChaosSpec, ProbeSpec)
        assert len({cls.kind for cls in classes}) == len(classes)
        for cls in classes:
            # job_key hashes the fields; frozen keeps them fixed after keying.
            assert dataclasses.is_dataclass(cls), cls.kind
            assert cls.__dataclass_params__.frozen, cls.kind
            assert "kind" not in {f.name for f in dataclasses.fields(cls)}
            for method in ("label", "reproducer", "run"):
                assert callable(getattr(cls, method)), f"{cls.kind} lacks {method}"

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(harness="nonsense", workload="gups", config="F+M")
        with pytest.raises(ValueError):
            ScenarioSpec(harness="multisocket", workload="gups", config="RPI-LD")
        with pytest.raises(ValueError):
            ChaosSpec(scenario="no-such-scenario")
        with pytest.raises(ValueError):
            ChaosSpec(scenario="replication-oom", intensity=0.0)
        with pytest.raises(ValueError):
            ProbeSpec(behavior="explode")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload 'nosuch'"):
            ScenarioSpec(harness="migration", workload="nosuch", config="LP-LD")
        with pytest.raises(ValueError, match="unknown workload"):
            scenario_grid("multisocket", ["gups", "nosuch"], ["F"])

    def test_workload_names_match_case_insensitively(self):
        """As ``create`` does; the spec keeps the name as given, so the
        key does not change."""
        upper = ScenarioSpec(harness="migration", workload="GUPS", config="LP-LD")
        assert upper.workload == "GUPS"
        assert job_key(upper) != job_key(dataclasses.replace(upper, workload="gups"))


class TestJobKey:
    def test_key_is_stable_across_instances(self):
        a = ChaosSpec(scenario="replication-oom", seed=5)
        b = ChaosSpec(scenario="replication-oom", seed=5)
        assert job_key(a) == job_key(b)

    def test_key_depends_on_every_spec_field(self):
        base = job_key(ChaosSpec(scenario="replication-oom", seed=5))
        assert job_key(ChaosSpec(scenario="replication-oom", seed=6)) != base
        assert job_key(ChaosSpec(scenario="shootdown-storm", seed=5)) != base
        assert (
            job_key(ChaosSpec(scenario="replication-oom", seed=5, intensity=2.0))
            != base
        )

    def test_key_depends_on_engine_and_code_version(self):
        spec = ProbeSpec(value=1)
        assert job_key(spec, engine="scalar") != job_key(spec, engine="vector")
        assert job_key(spec, code_version="0.0.0") != job_key(spec)

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                ScenarioSpec(
                    harness="migration", workload="gups", config="RPI-LD",
                    mitosis=True, footprint_mib=8, accesses=2_000, seed=3,
                ),
                "d852fcfa360cac562a1fe07b94e4ffcf358384aeb919042138874460b8704a9c",
            ),
            (
                ChaosSpec(scenario="swap-stall", seed=9, intensity=0.5),
                "9406e355cd098a9d53864c10979c8665f4c9b6e989fba34d651efee1b1feeef5",
            ),
            (
                ProbeSpec(behavior="flaky", succeed_after=3, value=17),
                "c8ea82bd7f17220ccc333a763db7587bdc65aaf48da857c5573cbbfcd95d39bc",
            ),
        ],
        ids=["scenario", "chaos", "probe"],
    )
    def test_key_is_pinned(self, spec, digest):
        """Keys name existing cache entries: a refactor of how specs are
        encoded must reproduce these digests byte for byte."""
        assert job_key(spec, engine="vector", code_version="pinned") == digest

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestGrids:
    def test_chaos_grid_covers_the_product(self):
        cells = chaos_grid(seeds=range(3), intensities=(0.5, 1.0))
        assert len(cells) == len(CHAOS_SCENARIOS) * 3 * 2
        assert len({job_key(c) for c in cells}) == len(cells)

    def test_scenario_grid_covers_the_product(self):
        cells = scenario_grid(
            "multisocket", ["gups", "btree"], ["F+M", "I+M"], seeds=(1, 2)
        )
        assert len(cells) == 2 * 2 * 2
        assert all(isinstance(c, ScenarioSpec) for c in cells)


class TestReproducers:
    def test_chaos_reproducer_replays_the_cell(self):
        spec = ChaosSpec(scenario="swap-stall", seed=9, intensity=0.5)
        line = spec.reproducer()
        assert "chaos" in line and "--scenario swap-stall" in line
        assert "--seed 9" in line and "--intensity 0.5" in line

    def test_scenario_reproducer_names_the_config(self):
        spec = ScenarioSpec(harness="migration", workload="gups", config="RPI-LD")
        line = spec.reproducer()
        assert "scenario migration gups RPI-LD" in line

    def test_probe_reproducer_runs_in_a_fresh_interpreter(self):
        spec = ProbeSpec(value=17)
        argv = shlex.split(spec.reproducer())
        assert argv[0] == "python"
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, *argv[1:]], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == repr(spec.run(attempt=1))


class TestProbe:
    def test_ok_and_flaky_behaviors(self):
        assert ProbeSpec(value=3).run(attempt=1)["value"] == 3
        flaky = ProbeSpec(behavior="flaky", succeed_after=2)
        with pytest.raises(RuntimeError):
            flaky.run(attempt=1)
        assert flaky.run(attempt=2)["ok"] is True

    def test_fail_always_raises(self):
        with pytest.raises(RuntimeError):
            ProbeSpec(behavior="fail").run(attempt=99)

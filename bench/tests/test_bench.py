"""Tests of the benchmark itself: ``python -m pytest bench/tests``."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import run as bench_run
from bench.trace import OTHER, PACKAGES, SpanRecorder
from bench.workloads import (
    ROOT,
    FleetFig10a,
    Fig9Canneal,
    GupsThpFastpath,
    VmaOps,
    WORKLOADS,
    digest,
)
from repro.sim.bench import metrics_equal
from repro.sim.engine import EngineConfig, Simulator
from repro.sim.scenario import run_migration, run_multisocket
from repro.units import MIB


def tiny(name: str, seed: int = 3):
    """Each workload at a size that runs in well under a second per unit."""
    return {
        "fig9-canneal": lambda: Fig9Canneal(seed, footprint_mib=4, accesses=300),
        "gups-thp-fastpath": lambda: GupsThpFastpath(seed, footprint_mib=8, accesses=2_000),
        "vma-ops": lambda: VmaOps(seed, rounds=2),
        "fleet-fig10a": lambda: FleetFig10a(
            seed, footprint_mib=8, accesses=300, workloads=("gups", "redis")
        ),
    }[name]()


def measure_tiny(name: str, trace: bool) -> dict:
    """``measure`` on a tiny workload, checked against its own first unit."""
    expected = digest(tiny(name).run_unit(SpanRecorder(), 0).surface)
    return bench_run.measure(tiny(name), seconds=0, trace=trace, expected_digest=expected)


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("config", ["F+M", "I+M"])
def test_replication_composition_matches_harness(config):
    workload = tiny("fig9-canneal")
    _, metrics, copied = workload.run_config(config, SpanRecorder(), 0)
    reference = run_multisocket(
        "canneal",
        config,
        footprint=4 * MIB,
        engine=EngineConfig(accesses_per_thread=300, seed=3),
        seed=3,
    )
    assert metrics_equal(metrics, reference.metrics)
    assert copied["mitosis.tables_copied"] > 0


def test_migration_composition_matches_harness():
    workload = tiny("gups-thp-fastpath")
    _, metrics, copied = workload.run_config("RPI-LD", True, SpanRecorder(), 0)
    reference = run_migration(
        "gups",
        "RPI-LD",
        mitosis=True,
        thp=True,
        footprint=8 * MIB,
        engine=EngineConfig(accesses_per_thread=2_000, tlb=workload.tlb, seed=3),
        seed=3,
    )
    assert metrics_equal(metrics, reference.metrics)
    assert copied > 0


def test_declared_metrics_match_benchmark_json():
    spec = benchmark_json()
    pattern = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for section, declared in (("end_to_end", bench_run.END_TO_END), ("per_layer", bench_run.PER_LAYER)):
        listed = {entry["name"]: entry["unit"] for entry in spec[section]}
        assert listed == declared, section
        assert all(pattern.match(name) for name in listed)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert spec["run_seconds"] == bench_run.DEFAULT_SECONDS
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, monkeypatch):
    def no_tracing(*args, **kwargs):
        raise AssertionError("the benchmark installed a TraceSession")

    monkeypatch.setattr("repro.trace.session.start_tracing", no_tracing)
    for trace, declared in ((False, bench_run.END_TO_END), (True, bench_run.PER_LAYER)):
        result = measure_tiny(name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] == 1 + bench_run.MIN_UNITS
        assert {m: e["unit"] for m, e in result["metrics"].items()} == declared
        assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())


def test_no_trace_session_during_runs(monkeypatch):
    from repro.trace.session import current_session

    seen = []
    original = Simulator.run

    def run(self, *args, **kwargs):
        seen.append(current_session())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", run)
    for trace in (False, True):
        measure_tiny("fig9-canneal", trace)
    assert seen and all(session is None for session in seen)


def test_fig9_spans_cover_the_unit_and_shares_sum_to_one():
    metrics = measure_tiny("fig9-canneal", trace=True)["metrics"]
    assert metrics["bench.span_coverage_pct"]["value"] > 95.0
    shares = [metrics[f"{package}.self_pct"]["value"] for package in (*PACKAGES, OTHER)]
    assert sum(shares) == pytest.approx(100.0, abs=1.0)


@pytest.mark.parametrize("name", ["fig9-canneal", "gups-thp-fastpath", "vma-ops"])
def test_two_runs_agree_on_digests_and_counts(name):
    digests = [digest(tiny(name).run_unit(SpanRecorder(), 0).surface) for _ in range(2)]
    assert digests[0] == digests[1]
    counts = []
    for _ in range(2):
        metrics = measure_tiny(name, trace=True)["metrics"]
        counts.append({m: e["value"] for m, e in metrics.items() if e["unit"] == "count"})
    assert counts[0] == counts[1]


def test_different_seeds_give_different_outputs():
    surfaces = [digest(tiny("fig9-canneal", seed).run_unit(SpanRecorder(), 0).surface) for seed in (1, 2)]
    assert surfaces[0] != surfaces[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_expected_digests_match_the_code(name):
    workload = WORKLOADS[name](bench_run.DEFAULT_SEED)
    unit = workload.run_unit(SpanRecorder(), 0)
    assert unit.problems == []
    assert digest(unit.surface) == bench_run.expected_digest(workload)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_recorded_seed_has_a_digest(name):
    for seed in range(bench_run.RECORDED_SEEDS):
        assert bench_run.expected_digest(WORKLOADS[name](seed)) is not None


def test_vma_ops_output_ignores_the_seed():
    digests = {digest(tiny("vma-ops", seed).run_unit(SpanRecorder(), 0).surface) for seed in (1, 2)}
    assert len(digests) == 1


def test_unrecorded_digest_refuses_to_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_run, "EXPECTED_PATH", tmp_path / "expected.json")
    with pytest.raises(SystemExit) as exit_info:
        bench_run.run_single("vma-ops", 1, seconds=0, trace=False)
    assert exit_info.value.code not in (0, None)
    assert capsys.readouterr().out == ""


def test_wrong_expected_digest_fails_the_run():
    result = bench_run.measure(tiny("vma-ops"), seconds=0, trace=False, expected_digest="0" * 64)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_cli_prints_result_object_last():
    # A seed past the recorded ones runs the inputs of seed % RECORDED_SEEDS,
    # so its output is still checked against a recorded digest.
    seed = 3 * bench_run.RECORDED_SEEDS + 2
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "gups-thp-fastpath",
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and set(result["metrics"]) == set(bench_run.END_TO_END)
    assert "(input seed 2)" in proc.stdout


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "vma-ops", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

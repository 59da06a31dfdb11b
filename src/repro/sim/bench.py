"""Engine throughput benchmark harness (``python -m repro.cli perf``).

Measures *simulated accesses per wall-clock second* for both interpreter
tiers (``scalar`` reference loop vs ``vector`` batch fast path, see
docs/performance.md) on three representative scenarios:

* ``gups-4socket`` — the fast-path showcase: GUPS under THP on four
  sockets with the paper hardware's full-size huge-page TLB, so nearly
  every access is an L1 hit and the batch tier carries the run.
* ``redis-faults`` — the escape-heavy adversary: part of the working set
  is reclaimed to swap pre-run and a seeded :class:`FaultPlan` injects
  I/O stalls, so the run keeps major-faulting. Carried by the batched
  escape interpreter (:mod:`repro.sim.escape`), whose fault-partitioned
  spans keep FaultPlans from forcing whole-run scalar execution.
* ``memcached-traced`` — both engines measured with a live
  :class:`TraceSession`, the observability worst case; the escape tier's
  walk-span emission (:func:`repro.sim.escape.emit_walk_span`) is what's
  on trial.

Every measurement builds a *fresh* scenario (runs mutate TLBs, page
tables and swap state) and times only :meth:`Simulator.run` — workload
generation and population are setup, not engine work. The harness also
re-checks the equivalence contract on every invocation: for each scenario
the scalar and vector metrics must match exactly, and the report records
the verdict.

The report (``BENCH_engine.json``, schema ``repro-bench-engine/2``)
stores seconds and accesses/second per engine plus the vector/scalar
speedup, giving this and every future PR a throughput trajectory. Since
schema ``/2`` each scenario also carries ``batch_latency``: wall-clock
p50/p99 over fixed-size *access batches* (epoch slices) per engine, the
service-shaped view — a tail batch is a stalled request. Percentile runs
are separate from the throughput runs: epoch slicing changes the vector
tier's window economics, so timing epochs inside the throughput runs
would perturb the very number the trajectory tracks.

This module is the one deliberate exception to the DET001 wall-clock
ban: throughput *is* wall-clock time, and nothing here feeds back into
simulated state.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable

from repro.inject.plan import FaultPlan, install_fault_plan
from repro.sim.engine import ENGINES, EngineConfig, Simulator
from repro.sim.metrics import RunMetrics
from repro.sim.scenario import ScenarioSetup, setup_migration, setup_multisocket
from repro.tlb.tlb import TlbConfig
from contextlib import nullcontext

from repro.trace.session import TraceSession, tracing
from repro.units import MIB

SCHEMA = "repro-bench-engine/2"

#: ThreadMetrics fields on the equivalence surface (ints exact, floats
#: bit-identical — the vector engine reproduces the scalar fold order).
#: The escape-class counters are machine facts, so they are on it too;
#: ``escape_bailout`` is deliberately absent (vector-tier scheduling,
#: always 0 on scalar — see :class:`repro.sim.metrics.ThreadMetrics`).
THREAD_FIELDS = (
    "accesses",
    "tlb_lookups",
    "tlb_walks",
    "faults",
    "walk_memory_refs",
    "walk_llc_hits",
    "escape_l1_miss",
    "escape_fault",
    "escape_trace",
    "data_cycles",
    "walk_cycles",
    "fault_cycles",
)
RUN_FIELDS = (
    "init_cycles",
    "overhead_cycles",
    "faults_injected",
    "degradations",
    "retries",
    "recoveries",
)


def metrics_equal(a: RunMetrics, b: RunMetrics) -> bool:
    """Exact equality over the full metrics surface (no tolerance)."""
    if len(a.threads) != len(b.threads):
        return False
    for ta, tb in zip(a.threads, b.threads):
        for name in THREAD_FIELDS:
            if getattr(ta, name) != getattr(tb, name):
                return False
    return all(getattr(a, name) == getattr(b, name) for name in RUN_FIELDS)


@dataclass(frozen=True)
class BenchScenario:
    """One benchmarked configuration.

    ``build`` returns a fresh ``(setup, engine_config)`` pair for the
    requested per-thread access count; ``traced`` runs the measurement
    under an installed :class:`TraceSession`.
    """

    name: str
    description: str
    build: Callable[[int], tuple[ScenarioSetup, EngineConfig]]
    traced: bool = False


def _build_gups(accesses: int) -> tuple[ScenarioSetup, EngineConfig]:
    setup = setup_multisocket("gups", "F", thp=True, footprint=64 * MIB)
    config = EngineConfig(
        accesses_per_thread=accesses,
        # Paper hardware's full-size huge-page TLB (Haswell: 32-entry L1 +
        # L2 share): 64 MiB of 2 MiB pages stay L1-resident, which is the
        # regime the batch tier exists for.
        tlb=TlbConfig(l1_huge_entries=32, l1_huge_ways=4, l2_huge_entries=64, l2_huge_ways=8),
    )
    return setup, config


def _build_redis_faults(accesses: int) -> tuple[ScenarioSetup, EngineConfig]:
    setup = setup_migration("redis", "LP-RD", footprint=48 * MIB)
    plan = FaultPlan(seed=11)
    plan.swap_stall(probability=0.4)
    install_fault_plan(setup.kernel, plan)
    # Push part of the working set to swap so the run keeps major-faulting
    # through the scalar escape path (with injected I/O stalls on top).
    setup.kernel.swap.reclaim(setup.process, target_pages=1024)
    return setup, EngineConfig(accesses_per_thread=accesses)


def _build_memcached_traced(accesses: int) -> tuple[ScenarioSetup, EngineConfig]:
    setup = setup_multisocket("memcached", "F", footprint=64 * MIB, n_sockets=2)
    return setup, EngineConfig(accesses_per_thread=accesses)


SCENARIOS: dict[str, BenchScenario] = {
    scenario.name: scenario
    for scenario in (
        BenchScenario(
            name="gups-4socket",
            description="GUPS, 4 sockets, THP, full-size huge-page TLB (fast-path heavy)",
            build=_build_gups,
        ),
        BenchScenario(
            name="redis-faults",
            description="redis, 2 sockets, working set partly swapped out, "
            "seeded swap-stall fault plan (escape heavy)",
            build=_build_redis_faults,
        ),
        BenchScenario(
            name="memcached-traced",
            description="memcached, 2 sockets, measured with a live TraceSession",
            build=_build_memcached_traced,
            traced=True,
        ),
    )
}

#: The scenario the ISSUE's >=5x target (and the CI regression gate)
#: applies to.
GATE_SCENARIO = "gups-4socket"

#: Escape-heavy scenarios the batched escape interpreter must keep at or
#: above scalar throughput (``--check`` / CI perf-smoke gate): faults and
#: live tracing may no longer push the vector tier below 1x.
ESCAPE_GATE_SCENARIOS = ("redis-faults", "memcached-traced")

#: Access batches per percentile-profiling run (each batch is one epoch
#: slice). 64 keeps p50 stable at smoke scale while p99 tracks the worst
#: batch — exactly the service-shaped question ("how slow is a stalled
#: request window").
_LATENCY_BATCHES = 64


def _percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sample list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_samples)))
    return sorted_samples[rank - 1]


def _measure_batches(
    scenario: BenchScenario, engine: str, accesses: int
) -> list[float]:
    """Wall-clock duration (µs) of each fixed-size access batch.

    Builds a fresh scenario, splits the run into ``_LATENCY_BATCHES``
    epoch slices and timestamps every slice boundary through the epoch
    callback. Kept separate from the throughput runs: epoch slicing
    resets the vector tier's window state per slice, which would perturb
    the accesses/second numbers the report's trajectory tracks.
    """
    setup, config = scenario.build(accesses)
    config.engine = engine
    # The bench scenarios configure neither epochs nor callbacks, so the
    # profiling run owns both knobs.
    config.epochs = max(1, min(_LATENCY_BATCHES, accesses))
    marks: list[float] = []

    def mark(_epoch: int, _metrics: RunMetrics) -> None:
        marks.append(time.perf_counter())  # lint: allow[DET001] -- wall-clock batch latency is the measurement

    config.epoch_callback = mark
    sim = Simulator(setup.kernel, config)
    sockets = [thread.socket for thread in setup.process.threads]
    scope = (
        tracing(TraceSession(sinks=(), metadata={"bench": scenario.name}))
        if scenario.traced
        else nullcontext()
    )
    with scope:
        start = time.perf_counter()  # lint: allow[DET001] -- wall-clock batch latency is the measurement
        sim.run(setup.process, setup.workload, sockets, setup.va_base)
        end = time.perf_counter()  # lint: allow[DET001] -- wall-clock batch latency is the measurement
    bounds = [start, *marks, end]
    return [
        (bounds[j + 1] - bounds[j]) * 1e6 for j in range(len(bounds) - 1)
    ]


def _batch_latency(scenario: BenchScenario, accesses: int) -> dict:
    """Per-engine p50/p99 over the batch-duration samples."""
    batches = max(1, min(_LATENCY_BATCHES, accesses))
    result: dict = {
        "batches": batches,
        "accesses_per_batch": accesses // batches,
    }
    for engine in ENGINES:
        samples = sorted(_measure_batches(scenario, engine, accesses))
        result[engine] = {
            "p50_us": round(_percentile(samples, 50.0), 1),
            "p99_us": round(_percentile(samples, 99.0), 1),
        }
    return result


def _measure_once(
    scenario: BenchScenario, engine: str, accesses: int
) -> tuple[float, RunMetrics]:
    """Build a fresh scenario and time one ``Simulator.run``."""
    setup, config = scenario.build(accesses)
    config.engine = engine
    sim = Simulator(setup.kernel, config)
    sockets = [thread.socket for thread in setup.process.threads]
    scope = (
        tracing(TraceSession(sinks=(), metadata={"bench": scenario.name}))
        if scenario.traced
        else nullcontext()
    )
    with scope:
        start = time.perf_counter()  # lint: allow[DET001] -- wall-clock throughput is the measurement
        metrics = sim.run(setup.process, setup.workload, sockets, setup.va_base)
        elapsed = time.perf_counter() - start  # lint: allow[DET001] -- wall-clock throughput is the measurement
    return elapsed, metrics


def run_scenario(
    scenario: BenchScenario, accesses: int, repeat: int
) -> dict:
    """Benchmark one scenario under both engines (best-of-``repeat``).

    The repeats interleave the tiers, and the tier that goes first
    alternates, so a slow spell of a shared host lands on both tiers
    rather than on whichever was being timed at the moment.
    """
    best = dict.fromkeys(ENGINES, float("inf"))
    first_metrics: dict[str, RunMetrics] = {}
    for rep in range(repeat):
        for engine in ENGINES if rep % 2 == 0 else ENGINES[::-1]:
            elapsed, metrics = _measure_once(scenario, engine, accesses)
            best[engine] = min(best[engine], elapsed)
            first_metrics.setdefault(engine, metrics)
    engines: dict[str, dict] = {}
    for engine in ENGINES:
        total_accesses = sum(thread.accesses for thread in first_metrics[engine].threads)
        engines[engine] = {
            "seconds": round(best[engine], 6),
            "accesses_per_second": round(total_accesses / best[engine], 1),
        }
    scalar_aps = engines["scalar"]["accesses_per_second"]
    vector_aps = engines["vector"]["accesses_per_second"]
    return {
        "description": scenario.description,
        "accesses_per_thread": accesses,
        "threads": len(first_metrics["scalar"].threads),
        "total_accesses": sum(t.accesses for t in first_metrics["scalar"].threads),
        "engines": engines,
        "speedup": round(vector_aps / scalar_aps, 3),
        "metrics_equal": metrics_equal(first_metrics["scalar"], first_metrics["vector"]),
        "escape_counts": dict(first_metrics["vector"].escape_counts),
        "batch_latency": _batch_latency(scenario, accesses),
    }


def run_bench(
    accesses: int = 50_000,
    repeat: int = 3,
    scenarios: list[str] | None = None,
) -> dict:
    """Run the harness and return the ``repro-bench-engine/2`` report."""
    if accesses < 1:
        raise ValueError(f"accesses must be >= 1, got {accesses}")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    names = list(scenarios) if scenarios else list(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ValueError(f"unknown perf scenario {name!r} (known: {known})")
    return {
        "schema": SCHEMA,
        "accesses_per_thread": accesses,
        "repeat": repeat,
        "scenarios": {name: run_scenario(SCENARIOS[name], accesses, repeat) for name in names},
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def check_report(report: dict) -> list[str]:
    """Regression verdicts for ``--check``: every scenario must keep the
    engines metric-equal, and neither the fast-path gate scenario nor the
    escape-heavy gate scenarios may run the vector tier slower than
    scalar (the batched escape interpreter's floor)."""
    problems = []
    for name, result in report["scenarios"].items():
        if not result["metrics_equal"]:
            problems.append(f"{name}: scalar and vector metrics differ")
        if name == GATE_SCENARIO and result["speedup"] < 1.0:
            problems.append(
                f"{name}: vector engine slower than scalar (speedup {result['speedup']:.3f})"
            )
        if name in ESCAPE_GATE_SCENARIOS and result["speedup"] < 1.0:
            problems.append(
                f"{name}: batched escape tier slower than scalar "
                f"(speedup {result['speedup']:.3f})"
            )
    return problems

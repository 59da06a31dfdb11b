"""End-to-end and per-layer benchmark of the Mitosis reproduction.

One workload, measured in this process (the form a harness calls)::

    python3 bench/run.py --workload fig9-canneal --seed 3 --seconds 10 --trace 0

prints every metric with its unit and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` gives the per-layer metrics from a run
that alternates sampled and unsampled units, and writes a Chrome trace
under ``bench/out/``. Without ``--workload``, or with ``--repeat N``,
every run goes to its own fresh subprocess, one at a time, and the
medians and quartiles per metric are printed (and written with
``--out``). The exit code is non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    # Import repro from src/ and this directory as the ``bench`` package.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402

from bench.trace import PACKAGES, OTHER, SpanRecorder, StackSampler  # noqa: E402
from bench.workloads import BENCH_DIR, OUT_DIR, WORKLOADS, Unit, digest  # noqa: E402

#: Measured seconds per run; BENCHMARK.json's ``run_seconds``.
DEFAULT_SECONDS = 10
DEFAULT_SEED = 1
EXPECTED_PATH = BENCH_DIR / "expected.json"
#: ``--seed N`` makes the inputs of recorded seed ``N % RECORDED_SEEDS``,
#: so that every run is checked against a digest in ``expected.json``.
RECORDED_SEEDS = 32
#: Units measured even when ``--seconds`` runs out first.
MIN_UNITS = 4

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

#: Span self time as a share of the sampled units' wall time.
SPAN_SHARES = (
    "kernel.setup",
    "mitosis.replicate",
    "mitosis.migrate",
    "sim.run",
    "paging.dump",
    "analysis.report",
    "kernel.mmap",
    "kernel.mprotect",
    "kernel.munmap",
)
#: Per-layer values each workload reads from public repro state (0 where
#: a workload does not exercise the layer).
UNIT_LAYERS = {
    "kernel.faults": "count",
    "kernel.mprotect_repl_over_native": "x",
    "mitosis.tables_copied": "count",
    "mitosis.pte_writes": "count",
    "mitosis.fanout": "x",
    "tlb.shootdowns": "count",
    "tlb.walks": "count",
    "sim.accesses": "count",
    "sim.escape_l1_miss": "count",
    "sim.escape_fault": "count",
    "sim.escape_bailout": "count",
    "sim.fastpath_pct": "%",
    "paging.walk_memory_refs": "count",
    "cache.walk_llc_hit_pct": "%",
    "fleet.busy_pct": "%",
    "fleet.dispatcher_cpu_pct": "%",
    "fleet.worker_cpu_pct": "%",
    "fleet.retries": "count",
    "fleet.worker_recycles": "count",
}
PER_LAYER = {
    **{f"{name}_pct": "%" for name in SPAN_SHARES},
    "workloads.gen_pct": "%",
    **UNIT_LAYERS,
    **{f"{package}.self_pct": "%" for package in (*PACKAGES, OTHER)},
    "bench.span_coverage_pct": "%",
    "bench.trace_overhead_pct": "%",
    "bench.host_speed_pct": "%",
    "analysis.paper_err_pct": "%",
}


def load_expected() -> dict:
    if EXPECTED_PATH.exists():
        return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return {}


def expected_digest(workload) -> str | None:
    """The recorded output digest for ``workload`` at its seed, if any.

    A workload whose output does not depend on its seed has one digest.
    """
    entry = load_expected().get(workload.name)
    if isinstance(entry, dict):
        return entry.get(str(workload.seed))
    return entry


class HostSpeed:
    """How fast the host runs a fixed reference loop, relative to the
    calibration machine when it was quiet.

    Other tenants of a shared machine slow every process on it for
    minutes at a time, longer than a run, so the best time of a part
    cannot escape them: on the 2-vCPU calibration VM whole runs took up
    to 1.8 times as long as in quiet periods. The loop uses no ``repro``
    code, so a change to the program leaves its time alone, and scaling
    the program's times by the loop's slowdown removes most of the
    host's.
    """

    #: About the best time of one pass between units on the calibration
    #: machine, so that there scaled seconds are close to host seconds.
    NOMINAL_SECONDS = 0.0034

    def __init__(self) -> None:
        # Small and allocation-free, so that a pass neither evicts much of
        # the next unit's cached data nor changes the allocator's state.
        self._table = {i: [i, 7 * i] for i in range(2_000)}
        self._keys = [(7919 * i) % 2_000 for i in range(40_000)]
        self._array = numpy.arange(8192, dtype=numpy.int64)
        self._scratch = numpy.empty_like(self._array)
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time one pass: dict and list lookups in Python, then numpy
        arithmetic on a cache-sized array."""
        start = time.perf_counter()
        total = 0
        for key in self._keys:
            total += self._table[key][1]
        array, scratch = self._array, self._scratch
        for _ in range(200):
            numpy.multiply(array, 3, out=scratch)
            numpy.add(scratch, 1, out=scratch)
            numpy.bitwise_and(scratch, 0xFFFF, out=array)
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Quiet calibration-machine seconds per host second (below 1
        when the host is slower)."""
        return self.NOMINAL_SECONDS / min(self.samples)


class Run:
    """Units of one workload in one process, and their verdicts."""

    def __init__(self, workload, expected_digest: str):
        self.workload = workload
        self.expected_digest = expected_digest
        self.rec = SpanRecorder()
        self.speed = HostSpeed()
        self.units: dict[int, Unit] = {}
        self.attempted = 0
        self.failed = 0
        self.first_digest: str | None = None

    def attempt(self, unit_id: int, sampler: StackSampler | None = None) -> None:
        """Run one unit (sampled when ``sampler`` is given) and check it."""
        self.attempted += 1
        if sampler is not None:
            sampler.start()
        try:
            unit = self.workload.run_unit(self.rec, unit_id)
        except Exception:  # noqa: BLE001 - a raising unit is a failed unit
            traceback.print_exc()
            self.failed += 1
            return
        finally:
            if sampler is not None:
                sampler.stop()
        if sampler is not None and hasattr(self.workload, "generate_streams"):
            with self.rec.span("workloads.gen", unit_id):
                self.workload.generate_streams()
        problems = list(unit.problems)
        unit_digest = digest(unit.surface)
        if self.first_digest is None:
            self.first_digest = unit_digest
        if unit_digest != self.first_digest:
            problems.append("output differs from the run's first unit")
        if unit_digest != self.expected_digest:
            problems.append(f"digest {unit_digest[:12]} != expected {self.expected_digest[:12]}")
        if problems:
            print(f"unit {unit_id}: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return
        self.units[unit_id] = unit


def measure(workload, seconds: float, trace: bool, expected_digest: str) -> dict:
    """Run ``workload`` for ``seconds`` after one warm-up unit; returns
    the result object (end-to-end metrics, or per-layer with ``trace``)."""
    run = Run(workload, expected_digest)
    sampler = StackSampler(ROOT / "src") if trace else None
    sampled: set[int] = set()
    run.attempt(0)  # warm-up: checked, not timed
    deadline = time.perf_counter() + seconds
    unit_id = 1
    while unit_id <= MIN_UNITS or time.perf_counter() < deadline:
        if unit_id % 2:
            # Odd units only: a pass slows the set-up that follows it.
            run.speed.sample()
        if trace and unit_id % 2 == 0:
            sampled.add(unit_id)
            run.attempt(unit_id, sampler)
        else:
            run.attempt(unit_id)
        unit_id += 1
    plain_ids = {i for i in run.units if i > 0 and i not in sampled}
    plain = [run.units[i] for i in sorted(plain_ids)]
    traced = [u for i, u in run.units.items() if i in sampled]
    if trace:
        metrics = _per_layer(run, plain, traced, sampler, sampled)
        run.rec.write_chrome_trace(
            OUT_DIR / f"{workload.name}-seed{workload.seed}.trace.json",
            {"workload": workload.name, "seed": workload.seed, **metrics},
        )
        units = PER_LAYER
    else:
        metrics = _end_to_end(run, plain_ids)
        units = END_TO_END
    correct = run.failed == 0 and bool(plain)
    print(f"host speed {100 * run.speed.factor():.1f}% of the quiet calibration machine")
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }


def _end_to_end(run: Run, unit_ids: set[int]) -> dict[str, float]:
    """Best time of each part (span) over the run's units, summed, in
    quiet calibration-machine seconds (see ``HostSpeed``).

    On a shared machine, interference only ever adds time, and short
    bursts of it can cover most of a unit; the fastest sample of each
    part is the one least disturbed (the reasoning of ``timeit``). The
    finer the parts, the fewer of them a burst spoils in every unit.
    """
    if not unit_ids:
        return {}
    best = {key: min(seconds) for key, seconds in run.rec.part_times(unit_ids).items()}
    op_seconds = sum(t for (name, _), t in best.items() if name in run.workload.OP_SPANS)
    units = [run.units[i] for i in unit_ids]
    # Set-ups of even units, which no reference pass precedes (all units
    # if every even one failed).
    setups = [run.units[i].setup for i in unit_ids if i % 2 == 0] or [u.setup for u in units]
    speed = run.speed.factor()
    return {
        "wall_s": sum(best.values()) * speed,
        "setup_s": statistics.median(setups) * speed,
        "ops_per_s": units[0].ops / (op_seconds * speed),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(run: Run, plain: list[Unit], traced: list[Unit], sampler, sampled) -> dict[str, float]:
    if not plain or not traced:
        return {}
    self_time = run.rec.self_times(sampled)
    traced_wall = sum(u.wall for u in traced)
    metrics = {f"{name}_pct": 100.0 * self_time[name] / traced_wall for name in SPAN_SHARES}
    if self_time["sim.run"]:
        metrics["workloads.gen_pct"] = 100.0 * self_time["workloads.gen"] / self_time["sim.run"]
    for name in UNIT_LAYERS:
        values = [u.layers[name] for u in plain if name in u.layers]
        if values:
            metrics[name] = statistics.median_low(values)
    for package, share in sampler.shares().items():
        metrics[f"{package}.self_pct"] = 100.0 * share
    metrics["bench.span_coverage_pct"] = 100.0 * (1.0 - self_time["unit"] / traced_wall)
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(u.wall for u in traced) / statistics.median(u.wall for u in plain) - 1.0
    )
    metrics["bench.host_speed_pct"] = 100.0 * run.speed.factor()
    metrics["analysis.paper_err_pct"] = statistics.median(u.paper_err_pct for u in plain)
    return metrics


def run_single(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name](seed % RECORDED_SEEDS)
    expected = expected_digest(workload)
    if expected is None:
        sys.exit(f"bench: no recorded digest for {name} at seed {workload.seed} in {EXPECTED_PATH}")
    result = measure(workload, seconds, trace, expected)
    print(
        f"{name} seed={seed} (input seed {workload.seed}) trace={int(trace)} attempted={result['attempted']} "
        f"failed={result['failed']} correct={result['correct']}"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        # Largest relative distance of one run from the median.
        "max_dev": max(abs(v - median) for v in values) / median if median else 0.0,
        "n": len(values),
    }


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_many(names: list[str], seed: int, repeat: int, seconds: float, trace: bool, out: Path | None) -> int:
    """Each (workload, seed, trace) run in its own fresh subprocess."""
    report = {
        "machine": machine_info(),
        "seconds": seconds,
        "seeds": [seed + r for r in range(repeat)],
        "workloads": {name: {"runs": []} for name in names},
    }
    ok = True
    for r in range(repeat):
        for name in names:
            for traced in (0, 1) if trace else (0,):
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed + r),
                    "--seconds", str(seconds), "--trace", str(traced),
                ]
                start = time.perf_counter()
                proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
                elapsed = time.perf_counter() - start
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
                ok &= proc.returncode == 0 and result["correct"]
                speed = [float(line.split()[2].rstrip("%")) for line in lines if line.startswith("host speed ")]
                report["workloads"][name]["runs"].append(
                    {"seed": seed + r, "trace": traced, "exit": proc.returncode, "seconds": elapsed,
                     "host_speed_pct": speed[0] if speed else None, **result}
                )
                print(
                    f"{name} seed={seed + r} trace={traced} exit={proc.returncode} "
                    f"correct={result['correct']} ({elapsed:.1f}s)",
                    flush=True,
                )
    for name in names:
        runs = report["workloads"][name]["runs"]
        summary = {}
        for metric, unit in {**END_TO_END, **PER_LAYER}.items():
            values = [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]
            if values:
                summary[metric] = {"unit": unit, **_summary(values)}
        report["workloads"][name]["summary"] = summary
        print(f"\n{name}")
        for metric, entry in summary.items():
            print(
                f"  {metric:<36} {entry['median']:>14.6g} {entry['unit']:<6} "
                f"[{entry['q1']:.6g}, {entry['q3']:.6g}] spread {100 * entry['spread']:.2f}% "
                f"max dev {100 * entry['max_dev']:.2f}%"
            )
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\nwrote {out}")
    return 0 if ok else 1


def record_expected(names: list[str]) -> int:
    """Store the digest of one unit per workload and recorded seed (one
    digest in all for a workload whose output ignores the seed)."""
    expected = load_expected()
    for name in names:
        seeded = WORKLOADS[name].seeded
        digests = {}
        for seed in range(RECORDED_SEEDS if seeded else 1):
            unit = WORKLOADS[name](seed).run_unit(SpanRecorder(), 0)
            if unit.problems:
                print(f"{name} seed={seed}: " + "; ".join(unit.problems), file=sys.stderr)
                return 1
            digests[str(seed)] = digest(unit.surface)
            print(f"{name} seed={seed}: {digests[str(seed)][:16]}", flush=True)
        expected[name] = digests if seeded else digests["0"]
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed (first of --repeat)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a sampled run")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", type=Path, help="write the runs and their medians and quartiles here")
    parser.add_argument("--record-expected", action="store_true",
                        help=f"store output digests for seeds 0-{RECORDED_SEEDS - 1} in bench/expected.json")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.record_expected:
        return record_expected(names)
    if len(names) == 1 and args.repeat == 1 and args.out is None:
        return run_single(names[0], args.seed, args.seconds, bool(args.trace))
    return run_many(names, args.seed, args.repeat, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())

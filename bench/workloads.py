"""The benchmark's four workloads.

Each workload regenerates one paper figure or table as a repeatable
*unit*: set-up (kernel build, population, replication or migration),
the measured operations, and the report. Every step of a unit runs in
a span of the runner's ``SpanRecorder``, and every unit makes the same
spans in the same order, so the runner can take the best time of each
step over many units. Units of one run are identical, so every unit must
produce the same simulated output; the runner digests that output and
checks the paper's shapes on it. Every unit builds fresh kernels, so
simulated TLBs, MMU caches and LLCs start empty, as in the paper
harnesses.
"""

from __future__ import annotations

import hashlib
import importlib.util
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.report import render_table
from repro.fleet import Fleet, FleetConfig, ResultCache, canonical_json, job_key
from repro.fleet.report import STATUS_COMPUTED
from repro.kernel.kernel import Kernel
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine
from repro.mitosis.migration import migrate_page_tables
from repro.paging.pte import PTE_USER
from repro.sim.bench import RUN_FIELDS, THREAD_FIELDS, _build_gups
from repro.sim.engine import EngineConfig, Simulator
from repro.sim.metrics import RunMetrics
from repro.sim.runner import normalize, render_figure
from repro.sim.scenario import (
    ScenarioResult,
    ScenarioSetup,
    ScenarioSpec,
    setup_migration,
    setup_multisocket,
)
from repro.units import KIB, MIB
from repro.workloads.registry import MIGRATION_WORKLOADS, create

from bench.trace import SpanRecorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Run outputs (Chrome traces, throwaway fleet caches); git-ignored.
OUT_DIR = BENCH_DIR / "out"


def _paper_references():
    """The paper's reported numbers, as the figure harnesses hold them."""
    spec = importlib.util.spec_from_file_location(
        "bench_paper_references", ROOT / "benchmarks" / "common.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PAPER = _paper_references()

#: Fig. 10's bars: (bar, Table 2 placement, +M page-table migration).
FIG10_BARS = (("LP-LD", "LP-LD", False), ("RPI-LD", "RPI-LD", False), ("RPI-LD+M", "RPI-LD", True))


@dataclass
class Unit:
    """What one unit did and how long it took (host seconds)."""

    wall: float
    setup: float
    #: Operations per unit (simulated accesses, syscalls or fleet cells),
    #: done inside the workload's ``OP_SPANS``.
    ops: int
    #: Deterministic simulated output; digested and compared across units.
    surface: object
    #: Per-layer counters and ratios read from public ``repro`` state.
    layers: dict[str, float]
    #: Paper-shape violations (empty when the output is right).
    problems: list[str]
    paper_err_pct: float


def digest(surface: object) -> str:
    """sha256 of a unit's simulated output in canonical JSON."""
    return hashlib.sha256(canonical_json(surface).encode("utf-8")).hexdigest()


def _metrics_surface(metrics: RunMetrics) -> dict:
    return {
        "threads": [[getattr(t, name) for name in THREAD_FIELDS] for t in metrics.threads],
        "run": [getattr(metrics, name) for name in RUN_FIELDS],
    }


def _engine_layers(runs: list[RunMetrics]) -> dict[str, float]:
    """Engine-side per-layer counts summed over a unit's runs."""
    threads = [t for metrics in runs for t in metrics.threads]
    accesses = sum(t.accesses for t in threads)
    l1_miss = sum(t.escape_l1_miss for t in threads)
    bailout = sum(t.escape_bailout for t in threads)
    refs = sum(t.walk_memory_refs for t in threads)
    llc_hits = sum(t.walk_llc_hits for t in threads)
    return {
        "sim.accesses": accesses,
        "sim.escape_l1_miss": l1_miss,
        "sim.escape_fault": sum(t.escape_fault for t in threads),
        "sim.escape_bailout": bailout,
        "sim.fastpath_pct": 100.0 * (accesses - l1_miss - bailout) / accesses,
        "tlb.walks": sum(t.tlb_walks for t in threads),
        "paging.walk_memory_refs": refs,
        "cache.walk_llc_hit_pct": 100.0 * llc_hits / refs if refs else 0.0,
    }


def _pct_error(simulated: float, paper: float) -> float:
    return 100.0 * abs(simulated - paper) / paper


def _seconds(row: list) -> float:
    """Duration of a closed span row."""
    return row[2] - row[1]


class Fig9Canneal:
    """Fig. 9a canneal: 4 sockets, 4 KiB pages, configs F, F+M, I, I+M."""

    name = "fig9-canneal"
    why = (
        "walker-bound: nearly every access misses the L1 TLB and walks, and "
        "first-touch population plus replication make up the set-up"
    )
    CONFIGS = ("F", "F+M", "I", "I+M")
    PAIRS = {"F+M": "F", "I+M": "I"}
    WORKLOAD = "canneal"
    SOCKETS = 4
    SETUP_SPANS = ("kernel.setup", "mitosis.replicate")
    OP_SPANS = ("sim.run",)
    seeded = True

    def __init__(self, seed: int, footprint_mib: int = 16, accesses: int = 5_000):
        self.seed = seed
        self.footprint = footprint_mib * MIB
        self.accesses = accesses

    def run_config(
        self, config: str, rec: SpanRecorder, unit_id: int
    ) -> tuple[ScenarioSetup, RunMetrics, dict[str, int]]:
        """Build, populate, replicate (``+M``) and run one Fig. 9 bar;
        returns the set-up, its metrics and replication counts.

        ``+M`` calls ``replicate_where_running`` on the populated native
        set-up, which is what ``setup_multisocket`` does for it, so the
        copy is timed on its own span.
        """
        with rec.span("kernel.setup", unit_id):
            setup = setup_multisocket(
                self.WORKLOAD,
                config.removesuffix("+M"),
                footprint=self.footprint,
                n_sockets=self.SOCKETS,
                seed=self.seed,
            )
        copied = {"mitosis.tables_copied": 0, "mitosis.pte_writes": 0}
        if config.endswith("+M"):
            before = setup.process.mm.tree.ops.stats.snapshot()
            with rec.span("mitosis.replicate", unit_id):
                setup.kernel.mitosis.replicate_where_running(setup.process)
            delta = setup.process.mm.tree.ops.stats.delta(before)
            copied = {
                "mitosis.tables_copied": delta.tables_allocated,
                "mitosis.pte_writes": delta.pte_writes,
            }
        simulator = Simulator(
            setup.kernel, EngineConfig(accesses_per_thread=self.accesses, seed=self.seed)
        )
        sockets = [t.socket for t in setup.process.threads]
        with rec.span("sim.run", unit_id):
            metrics = simulator.run(setup.process, setup.workload, sockets, setup.va_base)
        return setup, metrics, copied

    def run_unit(self, rec: SpanRecorder, unit_id: int) -> Unit:
        results: dict[str, ScenarioResult] = {}
        surface: dict = {}
        layers = dict.fromkeys(
            ("kernel.faults", "tlb.shootdowns", "mitosis.tables_copied", "mitosis.pte_writes"), 0
        )
        with rec.span("unit", unit_id) as unit_row:
            for config in self.CONFIGS:
                setup, metrics, copied = self.run_config(config, rec, unit_id)
                with rec.span("paging.dump", unit_id):
                    remote = setup.observed_remote_leaf()
                    dump = setup.dump()
                results[config] = ScenarioResult(
                    workload=self.WORKLOAD,
                    config=config,
                    thp=False,
                    mitosis=config.endswith("+M"),
                    metrics=metrics,
                    remote_leaf_fraction=remote,
                    dump=dump,
                )
                surface[config] = {
                    **_metrics_surface(metrics),
                    "remote_leaf": [remote[s] for s in sorted(remote)],
                }
                layers["kernel.faults"] += setup.kernel.fault_handler.faults_handled
                layers["tlb.shootdowns"] += setup.kernel.shootdown.stats.shootdowns
                for name, value in copied.items():
                    layers[name] += value
            with rec.span("analysis.report", unit_id):
                render_figure(
                    "Fig. 9a (bench): canneal, 4 KiB pages",
                    {self.WORKLOAD: normalize(results, baseline="F", pairs=self.PAIRS)},
                )

        problems = []
        speedups = {}
        for plus, base in self.PAIRS.items():
            speedups[plus] = results[base].runtime_cycles / results[plus].runtime_cycles
            if speedups[plus] <= 0.99:
                problems.append(f"{plus} slower than {base}: {speedups[plus]:.3f}x")
            if any(f != 0.0 for f in results[plus].remote_leaf_fraction.values()):
                problems.append(f"{plus} left remote leaf PTEs")
        paper = PAPER.PAPER_FIG9A[self.WORKLOAD]
        layers.update(_engine_layers([r.metrics for r in results.values()]))
        spans = rec.durations(unit_id)
        return Unit(
            wall=_seconds(unit_row),
            setup=sum(spans[name] for name in self.SETUP_SPANS),
            ops=layers["sim.accesses"],
            surface=surface,
            layers=layers,
            problems=problems,
            paper_err_pct=statistics.mean(_pct_error(speedups[c], paper[c]) for c in self.PAIRS),
        )

    def generate_streams(self) -> None:
        """Make every stream one unit's engine runs make, on their own."""
        workload = create(self.WORKLOAD, footprint=self.footprint, seed=self.seed)
        for _ in self.CONFIGS:
            for thread in range(self.SOCKETS):
                workload.offsets(thread, self.SOCKETS, self.accesses)
                workload.writes(thread, self.accesses)


class GupsThpFastpath:
    """Table 2 LP-LD / RPI-LD / RPI-LD+M for GUPS under THP, with the
    paper hardware's huge-page TLB, so the batch tier carries the run."""

    name = "gups-thp-fastpath"
    why = (
        "fast-path-bound: nearly every access stays in the vector batch tier "
        "and population is a few dozen huge faults"
    )
    CONFIGS = FIG10_BARS
    WORKLOAD = "gups"
    SETUP_SPANS = ("kernel.setup", "mitosis.migrate")
    OP_SPANS = ("sim.run",)
    seeded = True

    def __init__(self, seed: int, footprint_mib: int = 64, accesses: int = 2_000_000):
        self.seed = seed
        self.footprint = footprint_mib * MIB
        self.accesses = accesses
        self.tlb = _build_gups(1)[1].tlb

    def run_config(
        self, placement: str, mitosis: bool, rec: SpanRecorder, unit_id: int
    ) -> tuple[ScenarioSetup, RunMetrics, int]:
        """Build, populate, migrate (``+M``) and run one Fig. 10 bar;
        returns the set-up, its metrics and tables copied.

        ``+M`` calls ``migrate_page_tables`` on the populated set-up, as
        ``setup_migration(mitosis=True)`` does, timed on its own span.
        """
        with rec.span("kernel.setup", unit_id):
            setup = setup_migration(
                self.WORKLOAD, placement, thp=True, footprint=self.footprint, seed=self.seed
            )
        copied = 0
        if mitosis:
            with rec.span("mitosis.migrate", unit_id):
                result = migrate_page_tables(setup.kernel, setup.process, target_socket=0)
            copied = result.tables_copied
        config = EngineConfig(accesses_per_thread=self.accesses, tlb=self.tlb, seed=self.seed)
        simulator = Simulator(setup.kernel, config)
        sockets = [t.socket for t in setup.process.threads]
        with rec.span("sim.run", unit_id):
            metrics = simulator.run(setup.process, setup.workload, sockets, setup.va_base)
        return setup, metrics, copied

    def run_unit(self, rec: SpanRecorder, unit_id: int) -> Unit:
        results: dict[str, ScenarioResult] = {}
        layers = dict.fromkeys(("kernel.faults", "tlb.shootdowns", "mitosis.tables_copied"), 0)
        with rec.span("unit", unit_id) as unit_row:
            for bar, placement, mitosis in self.CONFIGS:
                setup, metrics, copied = self.run_config(placement, mitosis, rec, unit_id)
                results[bar] = ScenarioResult(
                    workload=self.WORKLOAD, config=bar, thp=True, mitosis=mitosis, metrics=metrics
                )
                layers["kernel.faults"] += setup.kernel.fault_handler.faults_handled
                layers["tlb.shootdowns"] += setup.kernel.shootdown.stats.shootdowns
                layers["mitosis.tables_copied"] += copied
            with rec.span("analysis.report", unit_id):
                render_figure(
                    "Fig. 10b (bench): gups, 2 MiB pages",
                    {
                        self.WORKLOAD: normalize(
                            results, baseline="LP-LD", pairs={"RPI-LD+M": "RPI-LD"}
                        )
                    },
                )

        cycles = {bar: r.runtime_cycles for bar, r in results.items()}
        problems = []
        if cycles["RPI-LD+M"] > cycles["RPI-LD"] * 1.01:
            problems.append("RPI-LD+M slower than RPI-LD")
        if abs(cycles["RPI-LD+M"] / cycles["LP-LD"] - 1.0) > 0.05:
            problems.append("RPI-LD+M not within 5% of LP-LD")
        layers.update(_engine_layers([r.metrics for r in results.values()]))
        spans = rec.durations(unit_id)
        return Unit(
            wall=_seconds(unit_row),
            setup=sum(spans[name] for name in self.SETUP_SPANS),
            ops=layers["sim.accesses"],
            surface={bar: _metrics_surface(r.metrics) for bar, r in results.items()},
            layers=layers,
            problems=problems,
            paper_err_pct=_pct_error(
                cycles["RPI-LD"] / cycles["LP-LD"], PAPER.PAPER_FIG10B[self.WORKLOAD]
            ),
        )

    def generate_streams(self) -> None:
        """Make every stream one unit's engine runs make, on their own."""
        workload = create(self.WORKLOAD, footprint=self.footprint, seed=self.seed)
        for _ in self.CONFIGS:
            workload.offsets(0, 1, self.accesses)
            workload.writes(0, self.accesses)


class VmaOps:
    """Table 5 on 4 sockets: ``mmap(MAP_POPULATE)`` → ``mprotect`` →
    ``munmap`` rounds on a native and a 4-way-replicated process.

    The syscalls are deterministic and take no random input, so the seed
    does not change this workload's output.
    """

    name = "vma-ops"
    why = (
        "write-side: PTE updates fan out to every replica with shootdowns and "
        "page-table page allocation, and the engine never runs"
    )
    OPS = ("mmap", "mprotect", "munmap")
    MODES = ("native", "replicated")
    SOCKETS = 4
    BASE = 1 << 30
    SIZE = 2 * MIB
    OP_SPANS = tuple(f"kernel.{op}" for op in OPS)
    #: Whether ``seed`` changes the output (and so the recorded digest).
    seeded = False

    def __init__(self, seed: int, rounds: int = 5):
        self.seed = seed
        self.rounds = rounds

    def _process(self, mode: str, rec: SpanRecorder, unit_id: int):
        machine = Machine.homogeneous(self.SOCKETS, cores_per_socket=1, memory_per_socket=256 * MIB)
        kernel = Kernel(machine, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS))
        process = kernel.create_process(f"t5-{mode}", socket=0)
        if mode == "replicated":
            with rec.span("mitosis.replicate", unit_id):
                kernel.mitosis.replicate_on_all_sockets(process)
        # Table 5's warm chain: an adjacent page keeps the page-table
        # chain around the region alive between rounds.
        kernel.sys_mmap(process, 4 * KIB, fixed_va=self.BASE + self.SIZE, populate=True)
        return kernel, process

    def _syscall(self, op: str, kernel: Kernel, process):
        if op == "mmap":
            return kernel.sys_mmap(process, self.SIZE, fixed_va=self.BASE, populate=True)
        if op == "mprotect":
            return kernel.sys_mprotect(process, self.BASE, self.SIZE, PTE_USER)
        return kernel.sys_munmap(process, self.BASE, self.SIZE)

    def run_unit(self, rec: SpanRecorder, unit_id: int) -> Unit:
        cycles = {(mode, op): [] for mode in self.MODES for op in self.OPS}
        host = dict.fromkeys(cycles, 0.0)
        with rec.span("unit", unit_id) as unit_row:
            with rec.span("kernel.setup", unit_id) as setup_row:
                sides = {mode: self._process(mode, rec, unit_id) for mode in self.MODES}
            writes_before = {
                mode: process.mm.tree.ops.stats.pte_writes for mode, (_, process) in sides.items()
            }
            for _ in range(self.rounds):
                for mode, (kernel, process) in sides.items():
                    for op in self.OPS:
                        with rec.span(f"kernel.{op}", unit_id) as row:
                            result = self._syscall(op, kernel, process)
                        cycles[mode, op].append(result.cycles)
                        host[mode, op] += _seconds(row)
            with rec.span("analysis.report", unit_id):
                ratios = {
                    op: sum(cycles["replicated", op]) / sum(cycles["native", op]) for op in self.OPS
                }
                render_table(
                    ["operation", "on/off"], [[op, f"{ratios[op]:.3f}x"] for op in self.OPS]
                )

        round_writes = {
            mode: process.mm.tree.ops.stats.pte_writes - writes_before[mode]
            for mode, (_, process) in sides.items()
        }
        replicated, native = sides["replicated"][1], sides["native"][1]
        problems = []
        if not 2.0 < ratios["mprotect"] < 4.0:
            problems.append(f"mprotect on/off {ratios['mprotect']:.3f} outside (2, 4)")
        if not ratios["mprotect"] > ratios["munmap"] > ratios["mmap"]:
            problems.append("on/off ratios not ordered mprotect > munmap > mmap")
        paper = PAPER.PAPER_TABLE5
        shootdowns = sum(kernel.shootdown.stats.shootdowns for kernel, _ in sides.values())
        return Unit(
            wall=_seconds(unit_row),
            setup=_seconds(setup_row),
            ops=len(cycles) * self.rounds,
            surface={
                "cycles": {f"{mode}/{op}": values for (mode, op), values in cycles.items()},
                "pte_writes": round_writes,
                "shootdowns": shootdowns,
            },
            layers={
                "kernel.faults": sum(k.fault_handler.faults_handled for k, _ in sides.values()),
                "tlb.shootdowns": shootdowns,
                "mitosis.pte_writes": replicated.mm.tree.ops.stats.pte_writes,
                "mitosis.fanout": round_writes["replicated"] / round_writes["native"],
                "mitosis.tables_copied": replicated.mm.tree.ops.stats.tables_allocated
                - native.mm.tree.ops.stats.tables_allocated,
                "kernel.mprotect_repl_over_native": host["replicated", "mprotect"]
                / host["native", "mprotect"],
            },
            problems=problems,
            paper_err_pct=statistics.mean(
                _pct_error(ratios[op], paper[op]["8MB"]) for op in self.OPS
            ),
        )


class FleetFig10a:
    """Fig. 10a as a fleet campaign: the 8 migration workloads × LP-LD,
    RPI-LD, RPI-LD+M, pooled over warm workers against a throwaway cache."""

    name = "fleet-fig10a"
    why = (
        "dispatch-bound: the only workload with fleet dispatch and the worker "
        "lifecycle on the critical path"
    )
    CONFIGS = FIG10_BARS
    #: Pool size: every core of a 2-core box, and no more.
    WORKERS = 2
    OP_SPANS = ("fleet.run",)
    seeded = True

    def __init__(
        self,
        seed: int,
        footprint_mib: int = 8,
        accesses: int = 2_000,
        workloads: tuple[str, ...] = MIGRATION_WORKLOADS,
    ):
        self.seed = seed
        self.specs = {
            (workload, bar): ScenarioSpec(
                harness="migration",
                workload=workload,
                config=placement,
                mitosis=mitosis,
                footprint_mib=footprint_mib,
                accesses=accesses,
                seed=seed,
            )
            for workload in workloads
            for bar, placement, mitosis in self.CONFIGS
        }

    def run_unit(self, rec: SpanRecorder, unit_id: int) -> Unit:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        first: list[float] = []

        def progress(_report, _outcome) -> None:
            if not first:
                first.append(time.perf_counter())

        self_before = _cpu_seconds(resource.RUSAGE_SELF)
        children_before = _cpu_seconds(resource.RUSAGE_CHILDREN)
        with tempfile.TemporaryDirectory(prefix="fleet-cache-", dir=OUT_DIR) as cache_dir:
            fleet = Fleet(FleetConfig(workers=self.WORKERS, seed=self.seed), ResultCache(cache_dir))
            with rec.span("unit", unit_id) as unit_row, rec.span("fleet.run", unit_id):
                report = fleet.run(list(self.specs.values()), progress=progress)
        wall = _seconds(unit_row)
        dispatcher_cpu = _cpu_seconds(resource.RUSAGE_SELF) - self_before
        worker_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN) - children_before

        by_key = {o.key: o for o in report.outcomes}
        problems = []
        cycles: dict[str, dict[str, float]] = {}
        surface = {}
        for (workload, bar), spec in self.specs.items():
            outcome = by_key.get(job_key(spec))
            if outcome is None or outcome.status != STATUS_COMPUTED or not outcome.ok:
                problems.append(f"{workload}/{bar}: {outcome.status if outcome else 'missing'}")
                continue
            cycles.setdefault(workload, {})[bar] = outcome.payload["runtime_cycles"]
            surface[f"{workload}/{bar}"] = outcome.payload
        errors = []
        for workload, bars in cycles.items():
            if len(bars) != len(self.CONFIGS):
                continue
            if bars["RPI-LD+M"] > bars["RPI-LD"] * 1.01:
                problems.append(f"{workload}: RPI-LD+M slower than RPI-LD")
            if abs(bars["RPI-LD+M"] / bars["LP-LD"] - 1.0) > 0.05:
                problems.append(f"{workload}: RPI-LD+M not within 5% of LP-LD")
            errors.append(_pct_error(bars["RPI-LD"] / bars["LP-LD"], PAPER.PAPER_FIG10A[workload]))

        busy = sum(o.seconds for o in report.outcomes)
        return Unit(
            wall=wall,
            # Time to the first completed cell: pool start plus one cell.
            setup=(first[0] - unit_row[1]) if first else wall,
            ops=len(report.outcomes),
            surface=surface,
            layers={
                "fleet.busy_pct": 100.0 * busy / (self.WORKERS * wall),
                "fleet.dispatcher_cpu_pct": 100.0 * dispatcher_cpu / wall,
                "fleet.worker_cpu_pct": 100.0 * worker_cpu / (self.WORKERS * wall),
                "fleet.retries": report.retries,
                "fleet.worker_recycles": report.worker_recycles,
            },
            problems=problems,
            paper_err_pct=statistics.mean(errors) if errors else 0.0,
        )


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


WORKLOADS = {cls.name: cls for cls in (Fig9Canneal, GupsThpFastpath, VmaOps, FleetFig10a)}

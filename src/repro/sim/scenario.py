"""The paper's two experimental harnesses.

* **Multi-socket scenario** (§3.1, §8.1, Table 3, Fig. 9): one
  multi-threaded workload across all sockets, under the six data/page-table
  placement configurations F, F+M, F-A, F-A+M, I, I+M (T-prefixed with
  THP).
* **Workload-migration scenario** (§3.2, §8.2, Table 2, Figs. 6/10/11): a
  single-socket workload whose page-tables and data are placed locally or
  remotely, with optional bandwidth interference, reproducing the state
  after an OS migrated the process — plus Mitosis page-table migration to
  repair it.

``setup_*`` builds the machine/kernel/process and populates the working set
(that alone determines the §3 placement analysis — Figs. 3 and 4);
``run_*`` additionally executes the workload and measures cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.kernel import Kernel
from repro.kernel.policy import FirstTouchPolicy, FixedNodePolicy, InterleavePolicy
from repro.kernel.process import Process
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine
from repro.mem.fragmentation import FragmentationInjector
from repro.mitosis.migration import migrate_page_tables
from repro.paging.dump import PageTableDump, dump_tree, remote_leaf_fractions
from repro.paging.levels import PagingGeometry
from repro.sim.engine import EngineConfig, Simulator
from repro.sim.metrics import RunMetrics
from repro.units import MIB
from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOADS, create

#: Order of Fig. 9's boxes.
MULTISOCKET_CONFIGS: tuple[str, ...] = ("F", "F+M", "F-A", "F-A+M", "I", "I+M")


@dataclass(frozen=True)
class MigrationConfig:
    """One Table 2 placement configuration.

    Socket A (0) always runs the workload; socket B (1) is the other one.
    """

    name: str
    pt_local: bool
    data_local: bool
    interfere_pt: bool = False
    interfere_data: bool = False

    @property
    def pt_socket(self) -> int:
        return 0 if self.pt_local else 1

    @property
    def data_socket(self) -> int:
        return 0 if self.data_local else 1

    def hogged_nodes(self) -> frozenset[int]:
        hogged = set()
        if self.interfere_pt:
            hogged.add(self.pt_socket)
        if self.interfere_data:
            hogged.add(self.data_socket)
        return frozenset(hogged)


#: Table 2, in the paper's order.
MIGRATION_CONFIGS: dict[str, MigrationConfig] = {
    config.name: config
    for config in (
        MigrationConfig("LP-LD", pt_local=True, data_local=True),
        MigrationConfig("LP-RD", pt_local=True, data_local=False),
        MigrationConfig("LP-RDI", pt_local=True, data_local=False, interfere_data=True),
        MigrationConfig("RP-LD", pt_local=False, data_local=True),
        MigrationConfig("RPI-LD", pt_local=False, data_local=True, interfere_pt=True),
        MigrationConfig("RP-RD", pt_local=False, data_local=False),
        MigrationConfig(
            "RPI-RDI", pt_local=False, data_local=False, interfere_pt=True, interfere_data=True
        ),
    )
}


@dataclass
class ScenarioSetup:
    """A built-and-populated scenario, ready to inspect or run."""

    kernel: Kernel
    process: Process
    workload: Workload
    va_base: int
    config: str
    thp: bool
    mitosis: bool

    def observed_remote_leaf(self) -> dict[int, float]:
        """Remote-leaf-PTE fraction seen from each socket's CR3 (Fig. 4)."""
        return remote_leaf_fractions(self.process.mm.tree, self.kernel.machine.n_sockets)

    def dump(self, socket: int | None = None) -> PageTableDump:
        """Fig. 3 style page-table snapshot."""
        return dump_tree(
            self.process.mm.tree, self.kernel.physmem, self.kernel.machine.n_sockets, socket
        )


@dataclass
class ScenarioResult:
    """Outcome of one measured scenario run."""

    workload: str
    config: str
    thp: bool
    mitosis: bool
    metrics: RunMetrics
    #: Fraction of leaf PTEs remote as observed by a walker on each socket
    #: (Fig. 1 top / Fig. 4).
    remote_leaf_fraction: dict[int, float] = field(default_factory=dict)
    #: Primary-copy page-table dump (Fig. 3). ``measure`` leaves it
    #: ``None``: a caller that wants the dump takes ``setup.dump()``.
    dump: PageTableDump | None = None
    #: THP allocation failure rate during population (Fig. 11 driver).
    thp_failure_rate: float = 0.0
    #: Page-table bytes per node at measurement time.
    pt_bytes_per_node: dict[int, float] = field(default_factory=dict)

    @property
    def runtime_cycles(self) -> float:
        return self.metrics.runtime_cycles

    @property
    def walk_cycle_fraction(self) -> float:
        return self.metrics.walk_cycle_fraction


def _populate(kernel: Kernel, process: Process, workload: Workload, va_base: int) -> None:
    """Fault the whole working set in, honouring each thread's init
    partition (who first-touches decides placement, §3.1)."""
    allow_huge = kernel.sysctl.thp_enabled
    populate = kernel.fault_handler.populate
    n_threads = len(process.threads)
    for thread in process.threads:
        start, end = workload.init_partition(thread.tid, n_threads)
        populate(process, va_base + start, va_base + end, thread.socket, allow_huge)
    # Partition rounding can leave a page unpopulated at region edges.
    populate(process, va_base, va_base + workload.footprint, process.threads[0].socket, allow_huge)


def setup_multisocket(
    workload_name: str,
    config: str,
    thp: bool = False,
    footprint: int = 128 * MIB,
    n_sockets: int = 4,
    seed: int = 1234,
) -> ScenarioSetup:
    """Build one Fig. 9 configuration: ``config`` in F, F+M, F-A, F-A+M, I,
    I+M (Table 3). Returns a populated, replicated-if-requested setup."""
    if config not in MULTISOCKET_CONFIGS:
        raise ValueError(f"unknown multi-socket config {config!r}")
    mitosis = config.endswith("+M")
    autonuma = "-A" in config
    interleave = config.startswith("I")

    machine = Machine.homogeneous(
        n_sockets, cores_per_socket=2, memory_per_socket=footprint + 96 * MIB
    )
    sysctl = Sysctl(
        thp_enabled=thp,
        autonuma_enabled=autonuma,
        mitosis_mode=MitosisMode.PER_PROCESS,
    )
    kernel = Kernel(machine, sysctl=sysctl)
    nodes = machine.node_ids()
    data_policy = InterleavePolicy(nodes) if interleave else FirstTouchPolicy()
    pt_policy = InterleavePolicy(nodes) if interleave else FirstTouchPolicy()
    process = kernel.create_process(
        workload_name, socket=0, pt_policy=pt_policy, data_policy=data_policy
    )
    for socket in nodes[1:]:
        process.add_thread(socket)

    workload = create(workload_name, footprint=footprint, seed=seed)
    va_base = kernel.sys_mmap(process, footprint, use_huge=thp, name=workload_name).value
    _populate(kernel, process, workload, va_base)
    if mitosis:
        kernel.mitosis.replicate_where_running(process)
    return ScenarioSetup(
        kernel=kernel,
        process=process,
        workload=workload,
        va_base=va_base,
        config=f"T{config}" if thp else config,
        thp=thp,
        mitosis=mitosis,
    )


def setup_migration(
    workload_name: str,
    config: str | MigrationConfig,
    mitosis: bool = False,
    thp: bool = False,
    fragmentation: float = 0.0,
    footprint: int = 96 * MIB,
    seed: int = 1234,
    levels: int = 4,
) -> ScenarioSetup:
    """Build one Table 2 configuration (two sockets: A=0 runs the workload).

    ``mitosis=True`` migrates the page-tables back to socket A after
    population — the ``+M`` repair. ``fragmentation`` pre-ages the machine
    for Fig. 11. ``levels=5`` switches to Intel's 5-level paging (the
    longer-walk future the paper's introduction warns about).
    """
    if isinstance(config, str):
        config = MIGRATION_CONFIGS[config]
    machine = Machine.homogeneous(2, cores_per_socket=2, memory_per_socket=footprint + 160 * MIB)
    sysctl = Sysctl(thp_enabled=thp, mitosis_mode=MitosisMode.PER_PROCESS)
    kernel = Kernel(machine, sysctl=sysctl, geometry=PagingGeometry(levels=levels))

    if fragmentation > 0.0:
        FragmentationInjector(kernel.physmem).fragment_machine(fragmentation)

    process = kernel.create_process(
        workload_name,
        socket=0,
        pt_policy=FixedNodePolicy(config.pt_socket),
        data_policy=FixedNodePolicy(config.data_socket),
    )
    workload = create(workload_name, footprint=footprint, seed=seed)
    va_base = kernel.sys_mmap(process, footprint, use_huge=thp, name=workload_name).value
    _populate(kernel, process, workload, va_base)

    if mitosis:
        migrate_page_tables(kernel, process, target_socket=0, free_origin=True)
    for node in config.hogged_nodes():
        kernel.contention.hog(node)

    name = config.name + ("+M" if mitosis else "")
    return ScenarioSetup(
        kernel=kernel,
        process=process,
        workload=workload,
        va_base=va_base,
        config=f"T{name}" if thp else name,
        thp=thp,
        mitosis=mitosis,
    )


def measure(setup: ScenarioSetup, engine: EngineConfig | None = None) -> ScenarioResult:
    """Execute a prepared setup and collect the paper's measurements."""
    kernel = setup.kernel
    engine_config = engine or EngineConfig()
    if kernel.sysctl.autonuma_enabled and engine_config.autonuma_epochs == 0:
        engine_config.autonuma_epochs = 4
    simulator = Simulator(kernel, engine_config)
    sockets = [t.socket for t in setup.process.threads]
    metrics = simulator.run(setup.process, setup.workload, sockets, setup.va_base)
    return ScenarioResult(
        workload=setup.workload.name,
        config=setup.config,
        thp=setup.thp,
        mitosis=setup.mitosis,
        metrics=metrics,
        remote_leaf_fraction=setup.observed_remote_leaf(),
        thp_failure_rate=kernel.thp.stats.failure_rate,
        pt_bytes_per_node={
            n: kernel.physmem.page_table_bytes(n) for n in kernel.machine.node_ids()
        },
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """Frozen descriptor of one measured scenario run (a fleet job).

    Everything a worker process needs to rebuild and measure the run —
    harness, workload, placement config, THP, seed — in JSON-safe fields.
    The fields are the spec's only encoding: with the engine tier and code
    version they content-hash into the fleet's cache key
    (:func:`repro.fleet.jobs.job_key`), and a pool worker receives the
    pickled spec itself.
    """

    harness: str  # "multisocket" | "migration"
    workload: str
    config: str
    thp: bool = False
    mitosis: bool = False  # migration only: the +M repair
    fragmentation: float = 0.0  # migration only
    footprint_mib: int = 64
    accesses: int = 20_000
    seed: int = 1234
    n_sockets: int = 4  # multisocket only
    kind = "scenario"

    def __post_init__(self) -> None:
        if self.harness not in ("multisocket", "migration"):
            raise ValueError(f"unknown harness {self.harness!r}")
        if self.workload.lower() not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"choose from {', '.join(sorted(WORKLOADS))}"
            )
        known = MULTISOCKET_CONFIGS if self.harness == "multisocket" else MIGRATION_CONFIGS
        if self.config not in known:
            raise ValueError(
                f"unknown {self.harness} config {self.config!r}; "
                f"choose from {', '.join(known)}"
            )

    def label(self) -> str:
        return f"scenario:{self.harness}/{self.workload}/{self.config}@seed={self.seed}"

    def reproducer(self) -> str:
        """One-line command that reruns exactly this cell."""
        flags = ""
        if self.mitosis:
            flags += " --mitosis"
        if self.thp:
            flags += " --thp"
        if self.fragmentation:
            flags += f" --fragmentation {self.fragmentation:g}"
        return (
            f"python -m repro.cli scenario {self.harness} {self.workload} "
            f"{self.config}{flags} --footprint-mib {self.footprint_mib} "
            f"--accesses {self.accesses}"
        )

    # dataflow: sink[determinism] -- cached measurement payload: same key, same bytes
    def run(self, attempt: int = 1) -> dict:
        """Execute the cell; returns the JSON-safe measurement payload."""
        engine = EngineConfig(accesses_per_thread=self.accesses)
        footprint = self.footprint_mib * MIB
        if self.harness == "multisocket":
            result = run_multisocket(
                self.workload,
                self.config,
                thp=self.thp,
                footprint=footprint,
                n_sockets=self.n_sockets,
                engine=engine,
                seed=self.seed,
            )
        else:
            result = run_migration(
                self.workload,
                self.config,
                mitosis=self.mitosis,
                thp=self.thp,
                fragmentation=self.fragmentation,
                footprint=footprint,
                engine=engine,
                seed=self.seed,
            )
        return {
            "schema": "repro-scenario-result/1",
            "ok": True,
            "workload": result.workload,
            "config": result.config,
            "thp": result.thp,
            "mitosis": result.mitosis,
            "runtime_cycles": result.runtime_cycles,
            "walk_cycle_fraction": result.walk_cycle_fraction,
            "tlb_miss_rate": result.metrics.tlb_miss_rate,
            "remote_leaf_fraction": {
                str(s): f for s, f in sorted(result.remote_leaf_fraction.items())
            },
            "thp_failure_rate": result.thp_failure_rate,
            "pt_bytes_per_node": {
                str(n): b for n, b in sorted(result.pt_bytes_per_node.items())
            },
            "faults_injected": result.metrics.faults_injected,
        }


def run_multisocket(
    workload_name: str,
    config: str,
    thp: bool = False,
    footprint: int = 128 * MIB,
    n_sockets: int = 4,
    engine: EngineConfig | None = None,
    seed: int = 1234,
) -> ScenarioResult:
    """Build and measure one Fig. 9 bar."""
    setup = setup_multisocket(
        workload_name, config, thp=thp, footprint=footprint, n_sockets=n_sockets, seed=seed
    )
    return measure(setup, engine)


def run_migration(
    workload_name: str,
    config: str | MigrationConfig,
    mitosis: bool = False,
    thp: bool = False,
    fragmentation: float = 0.0,
    footprint: int = 96 * MIB,
    engine: EngineConfig | None = None,
    seed: int = 1234,
    levels: int = 4,
) -> ScenarioResult:
    """Build and measure one Fig. 6 / Fig. 10 / Fig. 11 bar."""
    setup = setup_migration(
        workload_name,
        config,
        mitosis=mitosis,
        thp=thp,
        fragmentation=fragmentation,
        footprint=footprint,
        seed=seed,
        levels=levels,
    )
    return measure(setup, engine)

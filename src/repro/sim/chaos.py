"""Chaos harness: named fault-injection scenarios with a verifier verdict.

Each scenario builds a small machine, installs a seeded
:class:`~repro.inject.FaultPlan`, drives the replication path through the
injected faults, and finishes with the replica-consistency verifier
(:mod:`repro.inject.verify`). The whole run is deterministic in
``(scenario, seed)`` — the same faults fire at the same call sites every
time, which is what makes a chaos failure *reproducible*.

Scenarios:

``replication-oom``
    Socket 1's page-table allocations fail transiently while a process
    replicates onto {0, 1}: the request degrades to socket 0 (recorded as
    a :class:`~repro.mitosis.degrade.DegradedState`), the daemon retries
    with backoff, and once the fault clears the mask completes — the
    degrade → retry → recover arc end-to-end.

``shootdown-storm``
    TLB shootdowns suffer delayed IPIs and dropped acks during an
    mprotect/munmap storm over a replicated tree; the bounded-retry
    protocol absorbs the drops.

``swap-stall``
    Swap I/O stalls intermittently while pages of a replicated process are
    evicted and touched back in; leaf PTEs must stay consistent across
    replicas through unmap/remap cycles.

Every scenario takes an ``intensity`` knob that shapes its fault plan
(probabilities and transient-fault limits scale with it), so one scenario
spans a whole *fault-plan grid*: ``(scenario, seed, intensity)`` is the
cell coordinate the fleet's chaos campaigns sweep
(:mod:`repro.fleet.dispatcher`). :class:`ChaosSpec` is the frozen job
descriptor for one such cell, and :meth:`ChaosReport.to_dict` is the
structured verdict (``chaos --json``) the fleet and CI consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.inject.plan import FaultPlan, install_fault_plan
from repro.inject.verify import VerifyReport, verify_kernel
from repro.kernel.kernel import Kernel
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine
from repro.mitosis.daemon import MitosisDaemon
from repro.sim.metrics import RunMetrics
from repro.trace.integrate import publish_chaos_report
from repro.trace.session import trace_span
from repro.units import KIB, MIB

SCENARIOS: tuple[str, ...] = ("replication-oom", "shootdown-storm", "swap-stall")

#: Protection flag sets the shootdown storm toggles between.
_PROT_RW = (1 << 1) | (1 << 2)  # writable | user
_PROT_RO = 1 << 2  # user


def _scaled_probability(base: float, intensity: float) -> float:
    """Scale a rule probability with the plan intensity, clamped to 1."""
    return min(1.0, base * intensity)


def _scaled_limit(base: int, intensity: float) -> int:
    """Scale a transient-fault limit with the plan intensity (min 1)."""
    return max(1, round(base * intensity))


@dataclass(frozen=True)
class ChaosSpec:
    """Frozen descriptor of one chaos cell (a fleet job).

    ``(scenario, seed, intensity)`` fully determines the run: the same
    spec always injects the same faults and reaches the same verdict,
    which is what makes the result cacheable by a content hash of these
    fields (:func:`repro.fleet.jobs.job_key`).
    """

    scenario: str
    seed: int = 7
    intensity: float = 1.0
    kind = "chaos"

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}"
            )
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")

    def label(self) -> str:
        return f"chaos:{self.scenario}@seed={self.seed},x{self.intensity:g}"

    def reproducer(self) -> str:
        """One-line command that reruns exactly this cell."""
        return (
            f"python -m repro.cli chaos --scenario {self.scenario} "
            f"--seed {self.seed} --intensity {self.intensity:g} --json"
        )

    # dataflow: sink[determinism] -- cached verdict payload: same key, same bytes
    def run(self, attempt: int = 1) -> dict:
        """Execute the cell; returns the JSON-safe verdict payload."""
        report = run_chaos(self.scenario, seed=self.seed, intensity=self.intensity)
        return report.to_dict()


@dataclass
class ChaosReport:
    """Everything a chaos run observed, plus the verifier's verdict."""

    scenario: str
    seed: int
    intensity: float = 1.0
    events: list[str] = field(default_factory=list)
    faults_injected: int = 0
    faults_by_site: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    reclaim_rescues: int = 0
    degradations: int = 0
    recoveries: int = 0
    final_masks: dict[int, list[int]] = field(default_factory=dict)
    verify: VerifyReport = field(default_factory=VerifyReport)

    @property
    def ok(self) -> bool:
        return self.verify.ok

    # dataflow: sink[determinism] -- replayed verdict: a pure function of (scenario, seed, intensity)
    def to_dict(self) -> dict:
        """Structured verdict (``chaos --json``): everything a machine
        consumer — the fleet, CI — needs without scraping text."""
        return {
            "schema": "repro-chaos-verdict/1",
            "scenario": self.scenario,
            "seed": self.seed,
            "intensity": self.intensity,
            "ok": self.ok,
            "faults_injected": self.faults_injected,
            "faults_by_site": dict(sorted(self.faults_by_site.items())),
            "retries": self.retries,
            "reclaim_rescues": self.reclaim_rescues,
            "degradations": self.degradations,
            "recoveries": self.recoveries,
            "final_masks": {str(pid): mask for pid, mask in sorted(self.final_masks.items())},
            "events": list(self.events),
            "verify": self.verify.to_dict(),
        }

    def render(self) -> str:
        suffix = "" if self.intensity == 1.0 else f", intensity {self.intensity:g}"
        lines = [f"chaos scenario '{self.scenario}' (seed {self.seed}{suffix})", ""]
        lines.extend(f"  {event}" for event in self.events)
        lines.append("")
        lines.append(f"  faults injected : {self.faults_injected}")
        for site, count in sorted(self.faults_by_site.items()):
            lines.append(f"    {site:<28} {count}")
        lines.append(f"  retries         : {self.retries}")
        lines.append(f"  reclaim rescues : {self.reclaim_rescues}")
        lines.append(f"  degradations    : {self.degradations}")
        lines.append(f"  recoveries      : {self.recoveries}")
        for pid, mask in sorted(self.final_masks.items()):
            lines.append(f"  pid {pid} replica mask: {mask}")
        lines.append("")
        lines.append(f"  verifier: {self.verify.render()}")
        return "\n".join(lines)


def run_chaos(scenario: str, seed: int = 7, intensity: float = 1.0) -> ChaosReport:
    """Run one named scenario under a seeded fault plan; returns a report.

    ``intensity`` shapes the scenario's fault plan: probabilities and
    transient-fault limits scale with it (clamped to valid ranges), so
    ``0.5`` is a gentler plan and ``2.0`` a harsher one — the fault-plan
    axis of a chaos campaign grid.

    With tracing enabled (see :mod:`repro.trace`) the whole scenario is
    wrapped in a ``chaos.{scenario}`` root span, every injected fault
    appears as a ``fault`` instant, and the report's counters are folded
    into the session registry on completion.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    runner = {
        "replication-oom": _run_replication_oom,
        "shootdown-storm": _run_shootdown_storm,
        "swap-stall": _run_swap_stall,
    }[scenario]
    with trace_span(
        f"chaos.{scenario}", category="chaos", seed=seed, intensity=intensity
    ) as span:
        report = ChaosReport(scenario=scenario, seed=seed, intensity=intensity)
        kernel, plan = runner(report, seed, intensity)
        report.faults_injected = plan.stats.total
        report.faults_by_site = dict(plan.stats.by_site)
        report.retries = kernel.resilience.retries
        report.reclaim_rescues = kernel.resilience.reclaim_rescues
        report.degradations = kernel.resilience.degradations
        report.recoveries = kernel.resilience.recoveries
        for pid, process in sorted(kernel.processes.items()):
            mask = process.mm.replication_mask
            report.final_masks[pid] = sorted(mask) if mask else []
            if process.mm.degraded is not None:
                report.events.append(
                    f"pid {pid} still degraded: {process.mm.degraded.describe()}"
                )
        report.verify = verify_kernel(kernel)
        span.set(ok=report.ok, faults_injected=report.faults_injected)
    publish_chaos_report(report)
    return report


def _build_kernel(sockets: int = 2) -> Kernel:
    machine = Machine.homogeneous(
        sockets, cores_per_socket=2, memory_per_socket=64 * MIB
    )
    return Kernel(
        machine, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS)
    )


def _run_replication_oom(
    report: ChaosReport, seed: int, intensity: float = 1.0
) -> tuple[Kernel, FaultPlan]:
    kernel = _build_kernel()
    process = kernel.create_process("victim", socket=0)
    process.add_thread(1)
    kernel.sys_mmap(process, 2 * MIB, populate=True)

    # Socket 1's page-table allocations fail 4 times, then recover:
    # initial enable (fault 1), its reclaim-retry (fault 2), the daemon's
    # first completion attempt (faults 3, 4) — the second attempt succeeds.
    # Intensity scales how long the transient outage lasts.
    plan = FaultPlan(seed=seed)
    plan.pagecache_oom(node=1, limit=_scaled_limit(4, intensity))
    install_fault_plan(kernel, plan)

    mask = frozenset({0, 1})
    kernel.mitosis.set_replication_mask(process, mask)
    state = process.mm.degraded
    if state is None:
        report.events.append("replication completed without degrading (unexpected)")
    else:
        report.events.append(f"enable degraded: {state.describe()}")

    daemon = MitosisDaemon(manager=kernel.mitosis, process=process)
    for epoch in range(8):
        if process.mm.degraded is None:
            break
        daemon.observe(epoch, RunMetrics())
    for decision in daemon.decisions:
        report.events.append(f"epoch {decision.epoch}: [{decision.action}] {decision.detail}")
    return kernel, plan


def _run_shootdown_storm(
    report: ChaosReport, seed: int, intensity: float = 1.0
) -> tuple[Kernel, FaultPlan]:
    kernel = _build_kernel()
    process = kernel.create_process("stormy", socket=0)
    process.add_thread(1)
    va = kernel.sys_mmap(process, 1 * MIB, populate=True).value
    kernel.mitosis.set_replication_mask(process, frozenset({0, 1}))

    plan = FaultPlan(seed=seed)
    plan.shootdown_delay(
        multiplier=8.0, probability=_scaled_probability(0.4, intensity)
    )
    plan.drop_acks(
        probability=_scaled_probability(0.3, intensity),
        limit=_scaled_limit(12, intensity),
    )
    install_fault_plan(kernel, plan)

    for i in range(24):
        prot = _PROT_RO if i % 2 == 0 else _PROT_RW
        kernel.sys_mprotect(process, va, 64 * KIB, prot)
    kernel.sys_munmap(process, va + 512 * KIB, 256 * KIB)

    stats = kernel.shootdown.stats
    report.events.append(
        f"shootdown storm over: {stats.delayed} delayed IPI round(s), "
        f"{stats.dropped_acks} dropped ack(s), {stats.ack_retries} "
        f"re-IPI(s), {stats.ack_timeouts} timeout(s)"
    )
    return kernel, plan


def _run_swap_stall(
    report: ChaosReport, seed: int, intensity: float = 1.0
) -> tuple[Kernel, FaultPlan]:
    kernel = _build_kernel()
    process = kernel.create_process("swappy", socket=0)
    process.add_thread(1)
    va = kernel.sys_mmap(process, 1 * MIB, populate=True).value
    kernel.mitosis.set_replication_mask(process, frozenset({0, 1}))

    plan = FaultPlan(seed=seed)
    plan.swap_stall(probability=_scaled_probability(0.5, intensity))
    install_fault_plan(kernel, plan)

    evicted = kernel.swap.reclaim(process, target_pages=32)
    swapped_vas = sorted(process.mm.swapped)
    for slot_va in swapped_vas:
        kernel.swap.swap_in(process, slot_va, socket=1)
    kernel.touch(process, va, socket=1, is_write=True)

    stats = kernel.swap.stats
    report.events.append(
        f"evicted {evicted} page(s), brought {len(swapped_vas)} back; "
        f"{stats.io_stalls} injected I/O stall(s) cost "
        f"{stats.stall_cycles:.0f} extra cycles"
    )
    return kernel, plan

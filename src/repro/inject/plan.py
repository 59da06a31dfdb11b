"""The central, seeded fault plan.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries consulted by
instrumented *sites* in the simulator — the per-node frame allocator, the
page-table page-cache, the TLB shootdown path and the swap device. Every
decision is deterministic: probabilistic rules draw from one explicit
``random.Random(seed)``, so the same plan against the same call sequence
injects the same faults (the property every regression test relies on).

A rule fires when all of its filters match (site, node, predicate) and its
trigger says so:

* ``on_calls`` — fire on exactly these 1-based matching-call numbers;
* ``every`` — fire on every Nth matching call;
* ``probability`` — fire with this chance, drawn from the plan's RNG;
* none of the above — fire on every matching call.

``limit`` bounds the total number of fires (a transient fault that later
"heals" — the shape the degraded-replication retry path recovers from).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.trace.session import trace_count, trace_instant

#: Strict per-node frame allocation (``NodeAllocator``) fails with OOM.
SITE_ALLOCATOR_OOM = "mem.allocator.oom"
#: Page-table page-cache refill from the node allocator fails (§5.1).
SITE_PAGECACHE_REFILL = "mem.pagecache.refill"
#: A TLB shootdown's IPI round is delayed by ``delay_multiplier``.
SITE_SHOOTDOWN_DELAY = "tlb.shootdown.delay"
#: A shootdown acknowledgement is dropped; the sender re-sends (bounded).
SITE_SHOOTDOWN_DROP = "tlb.shootdown.drop_ack"
#: A swap-device I/O transiently stalls for ``stall_cycles`` extra cycles.
SITE_SWAP_STALL = "kernel.swap.stall"
#: A fleet worker attempt dies before producing a result: the dispatcher
#: (:mod:`repro.fleet.dispatcher`) consults this site before every launch,
#: so the fleet's own retry/quarantine machinery is testable with the same
#: seeded plans as everything else (self-hosting chaos). A firing rule
#: with ``delay_multiplier > 1`` simulates a *hung* worker (accounted as
#: a timeout); any other firing rule simulates a crash.
SITE_WORKER_CRASH = "fleet.worker.crash"

ALL_SITES = (
    SITE_ALLOCATOR_OOM,
    SITE_PAGECACHE_REFILL,
    SITE_SHOOTDOWN_DELAY,
    SITE_SHOOTDOWN_DROP,
    SITE_SWAP_STALL,
    SITE_WORKER_CRASH,
)


@dataclass
class FaultRule:
    """One injection rule: filters + trigger + payload."""

    site: str
    #: Only fire for this NUMA node (sites that pass ``node`` context).
    node: int | None = None
    #: Arbitrary context filter; receives the site's keyword context.
    predicate: Callable[[dict], bool] | None = None
    #: Fire on these 1-based matching-call numbers.
    on_calls: frozenset[int] | None = None
    #: Fire on every Nth matching call.
    every: int | None = None
    #: Fire with this probability (plan RNG).
    probability: float | None = None
    #: Stop firing after this many injections (transient faults).
    limit: int | None = None
    #: Payload for :data:`SITE_SHOOTDOWN_DELAY`.
    delay_multiplier: float = 1.0
    #: Payload for :data:`SITE_SWAP_STALL` (0 -> the site's default stall).
    stall_cycles: float = 0.0
    #: Matching calls seen so far (filters passed, trigger evaluated).
    calls: int = 0
    #: Faults actually injected.
    fired: int = 0

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ValueError(f"unknown injection site {self.site!r}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.every is not None and self.every <= 0:
            raise ValueError("every must be positive")
        if self.on_calls is not None:
            self.on_calls = frozenset(self.on_calls)

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.fired >= self.limit


@dataclass(frozen=True)
class InjectedFault:
    """Log record of one injected fault (for reports and debugging)."""

    seq: int
    site: str
    context: tuple[tuple[str, object], ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ctx = " ".join(f"{k}={v}" for k, v in self.context)
        return f"#{self.seq} {self.site} {ctx}".rstrip()


@dataclass
class InjectionStats:
    """How many faults were injected, overall and per site."""

    total: int = 0
    by_site: dict[str, int] = field(default_factory=dict)

    def record(self, site: str) -> None:
        self.total += 1
        self.by_site[site] = self.by_site.get(site, 0) + 1


@dataclass
class ResilienceStats:
    """Kernel-wide accounting of the graceful-degradation machinery."""

    #: Replication requests that ended with a reduced socket mask.
    degradations: int = 0
    #: Reclaim-then-retry attempts after a per-socket OOM.
    retries: int = 0
    #: Retries that succeeded because :func:`reclaim_replicas` freed memory.
    reclaim_rescues: int = 0
    #: Degraded masks later completed in full (daemon or manual retry).
    recoveries: int = 0


class FaultPlan:
    """A seeded, ordered set of fault rules plus their injection log."""

    def __init__(self, seed: int = 0, rules: Iterable[FaultRule] = ()):
        self.seed = seed
        self.rng = random.Random(seed)
        self.rules: list[FaultRule] = list(rules)
        self.stats = InjectionStats()
        self.log: list[InjectedFault] = []
        self.enabled = True

    def add(self, rule: FaultRule) -> FaultRule:
        """Append a rule; returns it for later inspection."""
        self.rules.append(rule)
        return rule

    # -- convenience constructors ------------------------------------------------

    def oom_on_node(self, node: int, **trigger) -> FaultRule:
        """Strict allocation on ``node`` fails."""
        return self.add(FaultRule(site=SITE_ALLOCATOR_OOM, node=node, **trigger))

    def pagecache_oom(self, node: int | None = None, **trigger) -> FaultRule:
        """Page-table page-cache refill fails (per-socket OOM, §5.1)."""
        return self.add(FaultRule(site=SITE_PAGECACHE_REFILL, node=node, **trigger))

    def shootdown_delay(self, multiplier: float, **trigger) -> FaultRule:
        """IPI rounds take ``multiplier``× their nominal cycles."""
        return self.add(
            FaultRule(site=SITE_SHOOTDOWN_DELAY, delay_multiplier=multiplier, **trigger)
        )

    def drop_acks(self, **trigger) -> FaultRule:
        """Shootdown acks get lost; the sender retries (bounded)."""
        return self.add(FaultRule(site=SITE_SHOOTDOWN_DROP, **trigger))

    def swap_stall(self, stall_cycles: float = 0.0, **trigger) -> FaultRule:
        """Swap I/O transiently stalls."""
        return self.add(
            FaultRule(site=SITE_SWAP_STALL, stall_cycles=stall_cycles, **trigger)
        )

    def worker_crash(self, hang: bool = False, **trigger) -> FaultRule:
        """A fleet worker attempt dies (``hang=True``: hangs until its
        pool slot's wall-clock deadline kills it)."""
        return self.add(
            FaultRule(
                site=SITE_WORKER_CRASH,
                delay_multiplier=2.0 if hang else 1.0,
                **trigger,
            )
        )

    # -- the decision point --------------------------------------------------------

    def fire(self, site: str, **context) -> FaultRule | None:
        """Should a fault be injected at ``site`` right now?

        Returns the first rule that fires (its payload configures the
        fault), or ``None``. Rules are consulted in insertion order; a
        rule that fires stops the scan, so later same-site rules see
        fewer matching calls.
        """
        if not self.enabled:
            return None
        for rule in self.rules:
            if rule.site != site:
                continue
            if rule.node is not None and context.get("node") != rule.node:
                continue
            if rule.predicate is not None and not rule.predicate(context):
                continue
            rule.calls += 1
            if rule.exhausted:
                continue
            if rule.on_calls is not None:
                should = rule.calls in rule.on_calls
            elif rule.every is not None:
                should = rule.calls % rule.every == 0
            elif rule.probability is not None:
                should = self.rng.random() < rule.probability
            else:
                should = True
            if not should:
                continue
            rule.fired += 1
            self.stats.record(site)
            scalars = tuple(
                (k, v) for k, v in sorted(context.items())
                if isinstance(v, (int, float, str, bool))
            )
            self.log.append(
                InjectedFault(seq=self.stats.total, site=site, context=scalars)
            )
            trace_count(f"inject.{site}")
            trace_instant(
                "fault",
                category="inject",
                site=site,
                seq=self.stats.total,
                seed=self.seed,
                **{
                    k: v for k, v in scalars
                    if k not in ("name", "category", "track", "site", "seq", "seed")
                },
            )
            return rule
        return None


def install_fault_plan(kernel, plan: FaultPlan | None) -> FaultPlan | None:
    """Wire ``plan`` into every instrumented layer of a kernel.

    Duck-typed on purpose: the kernel facade owns the allocator, the
    page-cache, the shootdown path and the swap manager; this threads one
    plan through all of them (``None`` detaches).
    """
    kernel.fault_plan = plan
    kernel.physmem.install_fault_plan(plan)
    kernel.pagecache.fault_plan = plan
    kernel.shootdown.fault_plan = plan
    kernel.swap.fault_plan = plan
    return plan


def uninstall_fault_plan(kernel) -> None:
    """Detach any installed plan from all layers."""
    install_fault_plan(kernel, None)

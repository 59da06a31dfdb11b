"""Incremental (background) replica creation (§6.1).

"Even if the OS makes a decision to migrate or replicate the page-tables,
it may be costly to copy the entire page-table as big memory workloads
easily achieve page-tables of multiple GB in size. By using additional
threads or even DMA engines ... the creation of a replica can happen in
the background and the application regains full performance when the
replica or migration has completed."

:class:`ReplicationJob` realises that: the replicating backend is switched
in immediately (so every *update* stays consistent from the first moment,
and tables allocated after the job starts are born fully replicated), while
the *existing* tables are copied in bounded steps, bottom-up. Bottom-up
order means that whenever a table's ring is built, all of its children's
rings already exist, so its copies can be wired to socket-local children in
one pass — and partially-replicated states are always consistent: copies
that don't exist yet simply leave walks on the primary path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OutOfMemoryError, ReplicationError
from repro.kernel.costs import TABLE_ALLOC_CYCLES
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.backend import MitosisPagingOps
from repro.paging.pagetable import PageTablePage, PageTableTree
from repro.trace.session import current_session
from repro.units import PTES_PER_TABLE


@dataclass
class ReplicationJob:
    """An in-flight background replication of one tree onto ``mask``."""

    tree: PageTableTree
    mask: frozenset[int]
    #: Optional kernel facade. When set, a per-socket OOM first triggers
    #: replica reclaim on the starving node and a retry; if the node is
    #: still dry the job *degrades* — it drops the socket from its mask and
    #: keeps copying for the rest — instead of raising.
    kernel: object | None = None
    #: Optional mm descriptor; degradations are recorded on it as a
    #: :class:`~repro.mitosis.degrade.DegradedState` for the daemon.
    mm: object | None = None
    tables_copied: int = 0
    #: Reclaim-then-retry attempts made after per-socket OOM.
    retries: int = 0
    #: Sockets dropped from the mask because they stayed dry.
    degraded_sockets: set[int] = field(default_factory=set)
    requested_mask: frozenset[int] = frozenset()
    _pending: list[int] = field(default_factory=list)  # primary pfns, deepest first

    def __post_init__(self) -> None:
        if not self.requested_mask:
            self.requested_mask = frozenset(self.mask)

    @property
    def done(self) -> bool:
        return not self._pending

    @property
    def remaining(self) -> int:
        return len(self._pending)

    def step(self, max_tables: int = 16) -> float:
        """Replicate up to ``max_tables`` more tables; returns the cycles
        the copy work cost. Safe to interleave with arbitrary mapping
        activity on the tree.

        Raises:
            OutOfMemoryError: a target socket ran dry and the job has no
                ``kernel`` to degrade through (legacy strict mode); the job
                stays consistent and resumable — free memory and call again.
        """
        session = current_session()
        if session is None:
            return self._step(max_tables)
        before = self.tables_copied
        with session.span(
            "replication.step", category="mitosis", remaining=self.remaining
        ) as span:
            cycles = self._step(max_tables)
            span.set(
                copied=self.tables_copied - before,
                remaining=self.remaining,
                cycles=round(cycles, 1),
            )
            return cycles

    def _step(self, max_tables: int) -> float:
        cycles = 0.0
        copied = 0
        while self._pending and copied < max_tables:
            pfn = self._pending[-1]
            primary = self.tree.registry.get(pfn)
            if primary is None or primary.is_replica:
                self._pending.pop()  # table was freed meanwhile
                continue
            try:
                cycles += self._copy(primary)
            except OutOfMemoryError as exc:
                if self.kernel is None or exc.node is None or exc.node not in self.mask:
                    raise
                rescued, extra = self._rescue(primary, exc.node)
                cycles += extra
                if not rescued:
                    continue  # mask shrank; retry this ring under the new mask
            self._pending.pop()
            copied += 1
            self.tables_copied += 1
        if self.done and self.mm is not None:
            self._record_outcome()
        return cycles

    def _copy(self, primary: PageTablePage) -> float:
        """Bring one table's ring up to the mask through the backend's
        ring builder; returns the copy work's cycle estimate."""
        ops = self.tree.ops
        before = ops.stats.tables_allocated
        ops.alloc_table(self.tree, primary.level, primary.node, primary=primary)
        fresh = ops.stats.tables_allocated - before
        return fresh * TABLE_ALLOC_CYCLES + primary.valid_count * fresh * 2.0

    def _rescue(self, primary: PageTablePage, node: int) -> tuple[bool, float]:
        """Reclaim on the starving node and retry this ring exactly once;
        drop the socket from the mask (degrade) if it stays dry."""
        from repro.mitosis.reclaim import reclaim_replicas

        self.retries += 1
        self.kernel.resilience.retries += 1
        reclaim_replicas(
            self.kernel, node, target_free_frames=self.remaining, aggressive=True
        )
        try:
            cycles = self._copy(primary)
        except OutOfMemoryError:
            if not self.degraded_sockets:
                self.kernel.resilience.degradations += 1
            self.mask = self.mask - {node}
            self.degraded_sockets.add(node)
            session = current_session()
            if session is not None:
                session.instant(
                    "job-degraded",
                    category="mitosis",
                    socket=node,
                    mask=sorted(self.mask),
                )
            if not self.mask:
                raise
            if isinstance(self.tree.ops, MitosisPagingOps):
                # New tables must stop targeting the dead socket too.
                self.tree.ops.mask = self.mask
            return False, 0.0
        self.kernel.resilience.reclaim_rescues += 1
        return True, cycles

    def _record_outcome(self) -> None:
        """Publish the final mask (and any degradation) on the mm."""
        from repro.mitosis.degrade import DegradedState

        self.mm.replication_mask = frozenset(self.mask)
        if self.degraded_sockets:
            self.mm.degraded = DegradedState(
                requested_mask=self.requested_mask,
                achieved_mask=frozenset(self.mask),
                missing=frozenset(self.degraded_sockets),
                reason=f"background replication starved on "
                f"{sorted(self.degraded_sockets)}",
            )


def start_background_replication(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    mask: frozenset[int],
    kernel: object | None = None,
    mm: object | None = None,
) -> ReplicationJob:
    """Begin replicating ``tree`` onto ``mask`` incrementally.

    Swaps the backend to :class:`MitosisPagingOps` right away: updates are
    propagated to whatever copies exist, and *new* tables are created fully
    replicated. Existing tables are copied by :meth:`ReplicationJob.step`.

    Passing ``kernel`` opts the job into graceful degradation (per-socket
    OOM triggers reclaim-and-retry, then mask shrinking); ``mm``
    additionally publishes the outcome — final mask and any
    :class:`~repro.mitosis.degrade.DegradedState` — when the job finishes.
    """
    if not mask:
        raise ReplicationError("empty mask")
    if not isinstance(tree.ops, MitosisPagingOps):
        new_ops = MitosisPagingOps(pagecache, mask)
        new_ops.stats = tree.ops.stats
        tree.ops = new_ops
    else:
        tree.ops.mask = frozenset(mask)
    # Deepest-level tables first (bottom-up): children before parents.
    primaries = sorted(tree.iter_tables(), key=lambda page: page.level)
    job = ReplicationJob(
        tree=tree,
        mask=frozenset(mask),
        kernel=kernel,
        mm=mm,
        _pending=[page.pfn for page in reversed(primaries)],
    )
    return job


def run_to_completion(job: ReplicationJob, max_tables_per_step: int = PTES_PER_TABLE) -> float:
    """Drive a job until done (tests/examples convenience)."""
    total = 0.0
    while not job.done:
        total += job.step(max_tables_per_step)
    return total

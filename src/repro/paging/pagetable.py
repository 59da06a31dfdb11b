"""Radix page-tables manipulated through a pluggable ops backend.

The paper implements Mitosis as a *PV-Ops backend*: every page-table page
allocation/release and every PTE write in the kernel goes through an
indirection table (Listing 1), and the Mitosis backend propagates writes to
all replicas. This module mirrors that split:

* :class:`PageTableTree` owns the radix-tree *logic* — descending, creating
  missing levels, mapping/unmapping/protecting, translating;
* every physical effect (allocating a table page, writing an entry, reading
  an entry's hardware bits) is delegated to a :class:`PagingOps` backend.
  The native backend lives in :mod:`repro.kernel.pvops`; the replicating
  backend in :mod:`repro.mitosis.backend`.

A :class:`PageTablePage` is a real 512-entry table of integer PTEs backed by
a physical :class:`~repro.mem.frame.Frame`, so NUMA placement, dumps and the
hardware walker all see the same concrete structure the kernel would.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Iterator, NamedTuple

from repro.errors import InvalidMappingError
from repro.mem.frame import Frame
from repro.trace.session import current_session
from repro.paging.levels import (
    GEOMETRY_4LEVEL,
    HUGE_LEAF_LEVEL,
    LEAF_LEVEL,
    PagingGeometry,
    level_index,
    level_span,
    table_span,
)
from repro.paging.pte import (
    PTE_HUGE,
    PTE_PRESENT,
    TABLE_FLAGS,
    count_present,
    make_pte,
    make_ptes,
    pte_flags,
    pte_huge,
    pte_pfn,
    pte_present,
)
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE, PTES_PER_TABLE


class PageTablePage:
    """One 4 KiB page-table page: 512 integer PTEs on a physical frame."""

    __slots__ = ("frame", "level", "entries", "valid_count", "primary")

    def __init__(self, frame: Frame, level: int, primary: "PageTablePage | None" = None):
        self.frame = frame
        self.level = level
        # lint: allow[PVOPS001] -- table birth: the entry array is created empty here, before any backend can write it
        self.entries: list[int] = [0] * PTES_PER_TABLE
        self.valid_count = 0
        #: ``None`` for the primary copy; for a Mitosis replica, the primary
        #: page it mirrors.
        self.primary = primary

    @property
    def pfn(self) -> int:
        return self.frame.pfn

    @property
    def node(self) -> int:
        """NUMA node this table page physically lives on."""
        return self.frame.node

    @property
    def is_replica(self) -> bool:
        return self.primary is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "replica" if self.is_replica else "primary"
        return (
            f"<PageTablePage L{self.level} pfn={self.pfn} node={self.node} "
            f"valid={self.valid_count} {role}>"
        )


class PteLocation(NamedTuple):
    """Address of one PTE: which table page, which slot."""

    page: PageTablePage
    index: int


class Translation(NamedTuple):
    """Result of a software address translation."""

    pfn: int
    flags: int
    level: int

    @property
    def page_size(self) -> int:
        return HUGE_PAGE_SIZE if self.level == HUGE_LEAF_LEVEL else PAGE_SIZE


@dataclass
class OpsStats:
    """Physical-effect counters a backend maintains; the syscall layer turns
    these into the cycle estimates of Table 5."""

    pte_writes: int = 0
    pte_reads: int = 0
    ring_hops: int = 0
    tables_allocated: int = 0
    tables_released: int = 0

    def snapshot(self) -> "OpsStats":
        return OpsStats(
            pte_writes=self.pte_writes,
            pte_reads=self.pte_reads,
            ring_hops=self.ring_hops,
            tables_allocated=self.tables_allocated,
            tables_released=self.tables_released,
        )

    def delta(self, earlier: "OpsStats") -> "OpsStats":
        """Counters accumulated since ``earlier``."""
        return OpsStats(
            pte_writes=self.pte_writes - earlier.pte_writes,
            pte_reads=self.pte_reads - earlier.pte_reads,
            ring_hops=self.ring_hops - earlier.ring_hops,
            tables_allocated=self.tables_allocated - earlier.tables_allocated,
            tables_released=self.tables_released - earlier.tables_released,
        )


class PagingOps(abc.ABC):
    """Backend interface for all physical page-table effects (PV-Ops).

    Backends must route every entry mutation through
    :meth:`apply_entry_write` (or its run form, :meth:`apply_entry_run`)
    so valid-entry counts stay correct on every physical copy.
    """

    def __init__(self) -> None:
        self.stats = OpsStats()

    @abc.abstractmethod
    def alloc_table(self, tree: "PageTableTree", level: int, node_hint: int) -> PageTablePage:
        """Allocate (and register) a table page for ``level``.

        ``node_hint`` is the socket of the thread triggering the allocation;
        placement policy decides where the page really lands.
        """

    @abc.abstractmethod
    def release_table(self, tree: "PageTableTree", page: PageTablePage) -> None:
        """Free a table page (and any replicas)."""

    @abc.abstractmethod
    def set_pte(self, tree: "PageTableTree", page: PageTablePage, index: int, value: int) -> None:
        """Write one PTE, propagating to all physical copies."""

    def set_pte_run(
        self, tree: "PageTableTree", page: PageTablePage, start_index: int, values: list[int]
    ) -> None:
        """Write ``values`` to consecutive PTEs of ``page`` from
        ``start_index``; same effect and counters as one :meth:`set_pte`
        per value, in order. Backends override this to resolve per-page
        state (the replica ring) once per run."""
        for offset, value in enumerate(values):
            self.set_pte(tree, page, start_index + offset, value)

    @abc.abstractmethod
    def read_pte(self, tree: "PageTableTree", page: PageTablePage, index: int) -> int:
        """Read one PTE as the OS must see it (A/D bits ORed across copies,
        §5.4)."""

    @abc.abstractmethod
    def clear_ad_bits(self, tree: "PageTableTree", page: PageTablePage, index: int) -> None:
        """Reset accessed/dirty in *all* physical copies (§5.4)."""

    @abc.abstractmethod
    def root_pfn_for_socket(self, tree: "PageTableTree", socket: int) -> int:
        """The value a context switch loads into CR3 on ``socket`` (§5.3)."""

    def read_pte_local(self, page: PageTablePage, index: int) -> int:
        """Read one PTE from the given copy only — no replica traversal.

        Correct whenever the caller does not need hardware A/D bits (they
        are the only field that differs between replicas): protection
        changes, pointer extraction, present checks.
        """
        self.stats.pte_reads += 1
        return page.entries[index]

    @staticmethod
    def apply_entry_write(page: PageTablePage, index: int, value: int) -> int:
        """Physically store ``value`` at ``page.entries[index]``; maintains
        the valid-entry count and returns the old value.

        This is the PV-Ops choke point — every physical entry store in
        the simulator funnels through here or through its run form,
        :meth:`apply_entry_run`, which makes them the one place a
        ``pvops.entry_writes`` trace counter can observe them all.
        Counter-only (no event objects): this site is far too hot for
        per-write events, and with tracing disabled it costs exactly one
        ``is None`` test.
        """
        old = page.entries[index]
        page.entries[index] = value
        page.valid_count += int(pte_present(value)) - int(pte_present(old))
        session = current_session()
        if session is not None:
            session.count("pvops.entry_writes")
        return old

    @staticmethod
    def apply_entry_run(page: PageTablePage, start: int, values: list[int]) -> None:
        """Physically store ``values`` at consecutive entries of ``page``
        from ``start``: the run form of :meth:`apply_entry_write`.

        One slice store and one valid-entry count update leave the same
        entries and count as one :meth:`apply_entry_write` per value, and
        ``pvops.entry_writes`` grows by ``len(values)``. It is the only
        other function allowed to store entries.

        Raises:
            IndexError: the run leaves the table (nothing is written).
        """
        if not values:
            return
        stop = start + len(values)
        entries = page.entries
        if start < 0 or stop > len(entries):
            raise IndexError(f"entry run [{start}, {stop}) leaves its table")
        old = entries[start:stop]
        entries[start:stop] = values
        page.valid_count += count_present(values) - count_present(old)
        session = current_session()
        if session is not None:
            session.count("pvops.entry_writes", float(len(values)))


class PageTableTree:
    """A process' page-table, possibly replicated across sockets.

    The tree always exposes a *primary* copy (``root``); with the native
    backend that is the only copy, with the Mitosis backend each socket in
    the replication mask additionally holds a replica kept consistent by the
    backend.
    """

    def __init__(
        self,
        ops: PagingOps,
        geometry: PagingGeometry = GEOMETRY_4LEVEL,
        node_hint: int = 0,
    ):
        self.ops = ops
        self.geometry = geometry
        #: pfn -> PageTablePage for every live table page, replicas included.
        #: This doubles as the ``struct page`` lookup the walker and the
        #: replica ring rely on.
        self.registry: dict[int, PageTablePage] = {}
        self.root = ops.alloc_table(self, geometry.root_level, node_hint)

    # -- lookup helpers -------------------------------------------------------

    def walk_path(self, va: int) -> list[PteLocation]:
        """Primary-copy path from the root towards ``va``'s leaf entry.

        Stops early at a non-present entry or a huge-page leaf. The last
        element is the deepest meaningful PTE.
        """
        self.geometry.check_va(va)
        path: list[PteLocation] = []
        page = self.root
        for level in range(self.geometry.root_level, 0, -1):
            index = level_index(va, level)
            path.append(PteLocation(page, index))
            entry = page.entries[index]
            if level == LEAF_LEVEL or not pte_present(entry) or pte_huge(entry):
                break
            page = self.registry[pte_pfn(entry)]
        return path

    def leaf_location(self, va: int) -> PteLocation | None:
        """The PTE mapping ``va`` (4 KiB or 2 MiB leaf), or ``None``."""
        location = self.walk_path(va)[-1]
        entry = location.page.entries[location.index]
        if not pte_present(entry):
            return None
        if location.page.level == LEAF_LEVEL or pte_huge(entry):
            return location
        return None  # present mid-level entry but nothing mapped below

    def translate(self, va: int) -> Translation | None:
        """Software translation of ``va`` (ignores TLBs), or ``None``."""
        location = self.leaf_location(va)
        if location is None:
            return None
        entry = location.page.entries[location.index]
        offset_bits = 21 if location.page.level == HUGE_LEAF_LEVEL else 12
        base_pfn = pte_pfn(entry)
        pfn = base_pfn + ((va >> 12) & ((1 << (offset_bits - 12)) - 1))
        return Translation(pfn=pfn, flags=pte_flags(entry), level=location.page.level)

    # -- mapping operations ----------------------------------------------------

    def map_page(
        self,
        va: int,
        data_pfn: int,
        flags: int,
        huge: bool = False,
        node_hint: int = 0,
    ) -> None:
        """Install a leaf mapping ``va -> data_pfn``.

        Args:
            va: Page-aligned virtual address (2 MiB aligned when ``huge``).
            data_pfn: Physical frame (head frame for huge pages).
            flags: PTE flag bits (present is added automatically).
            huge: Map a 2 MiB page at L2 instead of a 4 KiB page at L1.
            node_hint: Socket of the faulting thread; guides the placement
                of any newly created table pages (this is what makes
                page-table placement "first touch", §3.1 observation 1).

        Raises:
            InvalidMappingError: misaligned VA, or the range is already
                mapped (possibly at a different page size).
        """
        self.geometry.check_va(va)
        size = HUGE_PAGE_SIZE if huge else PAGE_SIZE
        if va % size:
            raise InvalidMappingError(f"va 0x{va:x} not aligned to {size}")
        table = self.leaf_table(va, HUGE_LEAF_LEVEL if huge else LEAF_LEVEL, node_hint)
        self.map_run(table, va, [data_pfn], flags)

    def leaf_table(self, va: int, leaf_level: int = LEAF_LEVEL, node_hint: int = 0) -> PageTablePage:
        """The table holding ``va``'s entry at ``leaf_level``, allocating
        (and linking) any missing table on the way down.

        One descent serves every page the returned table maps: a 4 KiB
        leaf table covers one aligned 2 MiB window.

        Raises:
            InvalidMappingError: a 2 MiB mapping already covers ``va``.
        """
        self.geometry.check_va(va)
        page = self.root
        for level in range(self.geometry.root_level, leaf_level, -1):
            index = level_index(va, level)
            entry = page.entries[index]
            if not pte_present(entry):
                child = self.ops.alloc_table(self, level - 1, node_hint)
                self.ops.set_pte(self, page, index, make_pte(child.pfn, TABLE_FLAGS))
                page = child
            elif pte_huge(entry):
                raise InvalidMappingError(
                    f"va 0x{va:x} already covered by a 2 MiB mapping at L{level}"
                )
            else:
                page = self.registry[pte_pfn(entry)]
        return page

    def map_run(self, table: PageTablePage, va: int, data_pfns: list[int], flags: int) -> None:
        """Map consecutive pages from ``va`` to ``data_pfns`` in ``table``
        (from :meth:`leaf_table`) with one PV-Ops run write. The run's
        slots and PTE values are checked once per run, not per page.

        The page size is the table's: 2 MiB leaves at L2, 4 KiB at L1.

        Raises:
            InvalidMappingError: the run leaves ``table``, or one of its
                pages is already mapped.
        """
        start = level_index(va, table.level)
        stop = start + len(data_pfns)
        if stop > PTES_PER_TABLE:
            raise InvalidMappingError(f"run of {len(data_pfns)} pages at 0x{va:x} leaves its table")
        entries = table.entries
        if count_present(entries[start:stop]):
            index = next(i for i in range(start, stop) if pte_present(entries[i]))
            size = HUGE_PAGE_SIZE if table.level == HUGE_LEAF_LEVEL else PAGE_SIZE
            raise InvalidMappingError(f"va 0x{va + (index - start) * size:x} is already mapped")
        leaf_flags = flags | PTE_PRESENT | (PTE_HUGE if table.level == HUGE_LEAF_LEVEL else 0)
        self.ops.set_pte_run(self, table, start, make_ptes(data_pfns, leaf_flags))

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def unmap_page(self, va: int) -> Translation:
        """Remove the leaf mapping covering ``va``; returns what it mapped.

        Empty table pages left behind are released bottom-up, so long-lived
        processes do not leak page-table memory.
        """
        path = self.walk_path(va)
        location = path[-1]
        entry = location.page.entries[location.index]
        if not pte_present(entry) or (
            location.page.level != LEAF_LEVEL and not pte_huge(entry)
        ):
            raise InvalidMappingError(f"va 0x{va:x} is not mapped")
        removed = Translation(
            pfn=pte_pfn(entry), flags=pte_flags(entry), level=location.page.level
        )
        self.ops.set_pte(self, location.page, location.index, 0)
        self._release_empty_tables(path)
        return removed

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def unmap_range(self, va: int, end: int, release: Callable[[int], None]) -> int:
        """Remove every leaf mapping from ``va`` up to ``end`` or the end of
        ``va``'s leaf table, whichever comes first; returns the address
        where it stopped (see :meth:`_leaf_slots`).

        One descent, one PV-Ops run write of zeros per contiguous run of
        mapped slots, then one collection of the tables left empty.
        ``release(leaf_va)`` is called for every removed leaf in VA order;
        the last one only after the collection, which is the order one
        :meth:`unmap_page` per leaf, each followed by freeing its frame,
        gives.

        Raises:
            InvalidMappingError: ``[va, end)`` covers part of a 2 MiB leaf.
        """
        path, stop, resume = self._leaf_slots(va, end)
        table, start = path[-1]
        runs = list(present_runs(table.entries, start, stop))
        if not runs:
            return resume
        for first, last in runs:
            self.ops.set_pte_run(self, table, first, [0] * (last - first))
        base = va & ~(table_span(table.level) - 1)
        size = level_span(table.level)
        leaves = [base + index * size for first, last in runs for index in range(first, last)]
        for leaf in leaves[:-1]:
            release(leaf)
        self._release_empty_tables(path)
        release(leaves[-1])
        return resume

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def _release_empty_tables(self, path: list[PteLocation]) -> None:
        """Release the tables left empty at the bottom of ``path`` (from
        :meth:`walk_path`), bottom-up; never the root."""
        for depth in range(len(path) - 1, 0, -1):
            page = path[depth].page
            if page.valid_count > 0:
                break
            parent = path[depth - 1]
            self.ops.set_pte(self, parent.page, parent.index, 0)
            self.ops.release_table(self, page)

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def protect_range(self, va: int, end: int, flags: int) -> int:
        """Set the flag bits of every leaf mapping from ``va`` up to ``end``
        or the end of ``va``'s leaf table, whichever comes first; returns
        the address where it stopped (see :meth:`_leaf_slots`).

        This is the read-modify-write Table 5 finds most expensive. The
        read side only needs the PFN and the present/huge bits, which are
        identical in every replica, so each leaf is read from one copy;
        the write side, what replication multiplies, is one PV-Ops run
        write per contiguous run of mapped slots.

        Raises:
            InvalidMappingError: ``[va, end)`` covers part of a 2 MiB leaf.
        """
        path, stop, resume = self._leaf_slots(va, end)
        table, start = path[-1]
        read = self.ops.read_pte_local
        for first, last in present_runs(table.entries, start, stop):
            values = []
            for index in range(first, last):
                entry = read(table, index)
                values.append(make_pte(pte_pfn(entry), flags | PTE_PRESENT | (entry & PTE_HUGE)))
            self.ops.set_pte_run(self, table, first, values)
        return resume

    def _leaf_slots(self, va: int, end: int) -> tuple[list[PteLocation], int, int]:
        """One descent towards ``va`` for the range methods.

        Returns ``(path, stop, resume)``: the primary path (see
        :meth:`walk_path`); ``stop``, one past the last slot of the path's
        deepest table that ``[va, end)`` covers; and ``resume``, where the
        next descent starts, never past ``end``. At a leaf table or a
        2 MiB leaf that is the end of ``va``'s 2 MiB window; at a hole it
        is the table's next present entry, so a run of empty entries
        costs one step.

        Raises:
            InvalidMappingError: ``[va, end)`` covers part of a 2 MiB leaf.
        """
        path = self.walk_path(va)
        table, index = path[-1]
        base = va & ~(table_span(table.level) - 1)
        if table.level == LEAF_LEVEL:
            resume = min(end, base + table_span(LEAF_LEVEL))
            return path, level_index(resume - 1, LEAF_LEVEL) + 1, resume
        span = level_span(table.level)
        entries = table.entries
        if pte_present(entries[index]):
            # A 2 MiB leaf: walk_path stops above L1 only there or at a hole.
            resume = base + (index + 1) * span
            if va & (span - 1) or resume > end:
                raise InvalidMappingError(
                    f"range partially covers the 2 MiB page at 0x{va & ~(span - 1):x}"
                )
            return path, index + 1, resume
        stop = index + 1
        while stop < PTES_PER_TABLE and not pte_present(entries[stop]):
            stop += 1
        return path, index, min(end, base + stop * span)

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def split_huge_page(self, va: int, node_hint: int = 0) -> None:
        """Shatter the 2 MiB mapping covering ``va`` into 512 4 KiB PTEs
        (THP split; the backing frames are contiguous so data stays put)."""
        location = self.leaf_location(va)
        if location is None or location.page.level != HUGE_LEAF_LEVEL:
            raise InvalidMappingError(f"va 0x{va:x} has no 2 MiB mapping")
        entry = location.page.entries[location.index]
        base_pfn = pte_pfn(entry)
        flags = pte_flags(entry) & ~PTE_HUGE
        child = self.ops.alloc_table(self, LEAF_LEVEL, node_hint)
        for i in range(PTES_PER_TABLE):
            self.ops.set_pte(self, child, i, make_pte(base_pfn + i, flags))
        self.ops.set_pte(self, location.page, location.index, make_pte(child.pfn, TABLE_FLAGS))

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def collapse_huge_page(self, va: int) -> bool:
        """Merge 512 contiguous 4 KiB PTEs back into one 2 MiB mapping
        (khugepaged's job). Returns ``False`` when the L1 table is not fully
        populated with physically contiguous, uniformly-flagged frames."""
        self.geometry.check_va(va)
        base_va = va & ~(HUGE_PAGE_SIZE - 1)
        path = self.walk_path(base_va)
        location = path[-1]
        if location.page.level != LEAF_LEVEL:
            return False
        table = location.page
        if table.valid_count != PTES_PER_TABLE:
            return False
        first = table.entries[0]
        base_pfn = pte_pfn(first)
        if base_pfn % PTES_PER_TABLE:
            return False
        flags = pte_flags(first)
        for i, entry in enumerate(table.entries):
            if pte_pfn(entry) != base_pfn + i or pte_flags(entry) != flags:
                return False
        parent = path[-2]
        self.ops.set_pte(
            self, parent.page, parent.index, make_pte(base_pfn, flags | PTE_HUGE)
        )
        self.ops.release_table(self, table)
        return True

    # -- introspection ---------------------------------------------------------

    def iter_tables(self) -> Iterator[PageTablePage]:
        """All *primary* table pages, root first (BFS)."""
        queue = [self.root]
        while queue:
            page = queue.pop(0)
            yield page
            if page.level == LEAF_LEVEL:
                continue
            entries = page.entries
            for index in occupied_slots(entries):
                entry = entries[index]
                if entry & (PTE_PRESENT | PTE_HUGE) == PTE_PRESENT:
                    # A copy may point at one of the child's replicas.
                    child = self.registry[pte_pfn(entry)]
                    queue.append(child.primary or child)

    def iter_mappings(self) -> Iterator[tuple[int, Translation]]:
        """All leaf mappings as ``(va, translation)`` in VA order."""
        yield from self._iter_mappings(self.root, 0)

    def _iter_mappings(self, page: PageTablePage, va_base: int) -> Iterator[tuple[int, Translation]]:
        span = level_span(page.level)
        for index, entry in enumerate(page.entries):
            if not pte_present(entry):
                continue
            va = va_base + index * span
            if page.level == LEAF_LEVEL or pte_huge(entry):
                yield va, Translation(pfn=pte_pfn(entry), flags=pte_flags(entry), level=page.level)
            else:
                yield from self._iter_mappings(self.registry[pte_pfn(entry)], va)

    def table_count(self) -> int:
        """Number of primary table pages (Table 4's "PT size" numerator)."""
        return sum(1 for _ in self.iter_tables())

    def total_table_count(self) -> int:
        """All table pages including replicas."""
        return len(self.registry)


#: Every slot number of one table, for :func:`occupied_slots`.
_SLOTS = tuple(range(PTES_PER_TABLE))


def occupied_slots(entries: list[int]) -> Iterator[int]:
    """The slots of a table's ``entries`` that are not zero, in order.

    Empty slots are skipped without a Python step each, which is what
    makes a scan of a sparse upper-level table cheap. Every present entry
    is non-zero, but a non-zero entry need not be present: callers test
    the present bit of each slot they get."""
    return compress(_SLOTS, entries)


def present_runs(entries: list[int], start: int, stop: int) -> Iterator[tuple[int, int]]:
    """``(first, last)`` bounds of each run of consecutive present
    entries in ``entries[start:stop]``."""
    index = start
    while index < stop:
        if not entries[index] & PTE_PRESENT:
            index += 1
            continue
        first = index
        while index < stop and entries[index] & PTE_PRESENT:
            index += 1
        yield first, index

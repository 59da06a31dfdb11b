"""The native PV-Ops backend.

Linux routes page-table allocation/release, CR3 writes and PTE stores
through the paravirt-ops indirection (Listing 1). This backend is the
``native`` entry in that table: a single page-table copy, direct writes, no
replication. :class:`~repro.mitosis.backend.MitosisPagingOps` replaces it
when replication is enabled — and behaves identically to this class while
replication is off, which the paper calls out as a design requirement
(§5.2) and the test-suite asserts.
"""

from __future__ import annotations

from repro.kernel.policy import FirstTouchPolicy, PlacementPolicy
from repro.mem.pagecache import PageTablePageCache
from repro.paging.pagetable import PageTablePage, PageTableTree, PagingOps
from repro.paging.pte import PTE_AD_BITS


class NativePagingOps(PagingOps):
    """Single-copy page-tables, as stock Linux keeps them."""

    def __init__(
        self,
        pagecache: PageTablePageCache,
        pt_policy: PlacementPolicy | None = None,
    ):
        super().__init__()
        self.pagecache = pagecache
        #: Placement policy for page-table pages. First-touch by default —
        #: which is precisely what produces the skewed placement of §3.1.
        self.pt_policy = pt_policy or FirstTouchPolicy()

    def alloc_table(self, tree: PageTableTree, level: int, node_hint: int) -> PageTablePage:
        node = self.pt_policy.choose_node(node_hint)
        page = PageTablePage(frame=self.pagecache.alloc(node), level=level)
        tree.registry[page.pfn] = page
        self.stats.tables_allocated += 1
        return page

    def release_table(self, tree: PageTableTree, page: PageTablePage) -> None:
        del tree.registry[page.pfn]
        self.pagecache.free(page.frame)
        self.stats.tables_released += 1

    def set_pte(self, tree: PageTableTree, page: PageTablePage, index: int, value: int) -> None:
        self.apply_entry_write(page, index, value)
        self.stats.pte_writes += 1

    def set_pte_run(
        self, tree: PageTableTree, page: PageTablePage, start_index: int, values: list[int]
    ) -> None:
        self.apply_entry_run(page, start_index, values)
        self.stats.pte_writes += len(values)

    def read_pte(self, tree: PageTableTree, page: PageTablePage, index: int) -> int:
        self.stats.pte_reads += 1
        return page.entries[index]

    def clear_ad_bits(self, tree: PageTableTree, page: PageTablePage, index: int) -> None:
        self.apply_entry_write(page, index, page.entries[index] & ~PTE_AD_BITS)
        self.stats.pte_writes += 1

    def root_pfn_for_socket(self, tree: PageTableTree, socket: int) -> int:
        # One copy: every socket loads the same CR3, remote or not.
        return tree.root.pfn

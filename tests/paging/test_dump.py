"""Page-table dump analytics (Fig. 3 / Fig. 4 primitives)."""

import pytest

from repro.errors import TopologyError
from repro.kernel.kernel import Kernel
from repro.kernel.policy import FixedNodePolicy, InterleavePolicy
from repro.kernel.pvops import NativePagingOps
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.migration import migrate_page_tables
from repro.paging import dump as dump_module
from repro.paging.dump import LevelSocketCell, PageTableDump, dump_tree, remote_leaf_fractions
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_USER, PTE_WRITABLE, pte_huge, pte_pfn, pte_present
from repro.units import MIB, PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER


@pytest.fixture
def tree(physmem2):
    ops = NativePagingOps(PageTablePageCache(physmem2), pt_policy=FixedNodePolicy(0))
    return PageTableTree(ops)


class TestDump:
    def test_counts_pages_per_level(self, tree, physmem2):
        for i in range(4):
            tree.map_page(i * PAGE_SIZE, physmem2.alloc_frame(1).pfn, FLAGS)
        dump = dump_tree(tree, physmem2, n_sockets=2)
        assert dump.cell(4, 0).pages == 1
        assert dump.cell(1, 0).pages == 1
        assert dump.cell(1, 1).pages == 0

    def test_leaf_pointers_bucketed_by_data_node(self, tree, physmem2):
        tree.map_page(0x0000, physmem2.alloc_frame(0).pfn, FLAGS)
        tree.map_page(0x1000, physmem2.alloc_frame(1).pfn, FLAGS)
        tree.map_page(0x2000, physmem2.alloc_frame(1).pfn, FLAGS)
        dump = dump_tree(tree, physmem2, n_sockets=2)
        assert dump.leaf_pointer_distribution() == [1, 2]

    def test_remote_fraction_of_cell(self, tree, physmem2):
        tree.map_page(0x0000, physmem2.alloc_frame(0).pfn, FLAGS)
        tree.map_page(0x1000, physmem2.alloc_frame(1).pfn, FLAGS)
        dump = dump_tree(tree, physmem2, n_sockets=2)
        assert dump.cell(1, 0).remote_fraction == pytest.approx(0.5)

    def test_observer_remote_leaf_fraction(self, tree, physmem2):
        """PT on socket 0: observer 0 sees 0% remote leaf PTEs, observer 1
        sees 100% — regardless of where the data lives."""
        tree.map_page(0x0000, physmem2.alloc_frame(1).pfn, FLAGS)
        dump = dump_tree(tree, physmem2, n_sockets=2)
        assert dump.remote_leaf_fraction(0) == 0.0
        assert dump.remote_leaf_fraction(1) == 1.0

    def test_render_contains_level_rows(self, tree, physmem2):
        tree.map_page(0x0000, physmem2.alloc_frame(0).pfn, FLAGS)
        text = dump_tree(tree, physmem2, n_sockets=2).render()
        for row in ("L4", "L3", "L2", "L1"):
            assert row in text
        assert "Socket 0" in text

    def test_huge_mappings_counted_at_l2(self, tree, physmem2):
        frame = physmem2.alloc_huge_frame(1)
        tree.map_page(0, frame.pfn, FLAGS, huge=True)
        dump = dump_tree(tree, physmem2, n_sockets=2)
        assert 1 not in dump.cells  # no leaf level at all
        # The L2 cell's pointer targets the data node (socket 1).
        assert dump.cell(2, 0).pointers_to[1] == 1

    def test_empty_tree_dump(self, tree, physmem2):
        dump = dump_tree(tree, physmem2, n_sockets=2)
        assert dump.cell(4, 0).pages == 1
        assert dump.remote_leaf_fraction(0) == 0.0


def oracle_dump_tree(tree, physmem, n_sockets, socket=None) -> PageTableDump:
    """The per-entry loop ``dump_tree`` replaced: three helper calls per
    entry and one ``node_of_pfn`` bisect per leaf."""
    if socket is None:
        root = tree.root
    else:
        root = tree.registry[tree.ops.root_pfn_for_socket(tree, socket)]
    cells = {}

    def cell_for(level, node):
        if level not in cells:
            cells[level] = [
                LevelSocketCell(
                    level=level,
                    socket=s,
                    pointers_to=[0] * n_sockets,
                    leaf_pointers_to=[0] * n_sockets,
                )
                for s in range(n_sockets)
            ]
        return cells[level][node]

    queue = [root]
    while queue:
        page = queue.pop(0)
        cell = cell_for(page.level, page.node)
        cell.pages += 1
        for entry in page.entries:
            if not pte_present(entry):
                continue
            target_pfn = pte_pfn(entry)
            if page.level == LEAF_LEVEL or pte_huge(entry):
                target_node = physmem.node_of_pfn(target_pfn)
                cell.leaf_pointers_to[target_node] += 1
            else:
                child = tree.registry[target_pfn]
                target_node = child.node
                queue.append(child)
            cell.pointers_to[target_node] += 1
    return PageTableDump(n_sockets=n_sockets, root_pfn=root.pfn, cells=cells)


def populated(thp=False, interleave=False, replicate=False):
    """A 4-socket process whose 12 MiB arena each socket first-touches a
    quarter of (page-tables placed the same way)."""
    machine = Machine.homogeneous(4, cores_per_socket=1, memory_per_socket=32 * MIB)
    kernel = Kernel(machine, sysctl=Sysctl(thp_enabled=thp, mitosis_mode=MitosisMode.PER_PROCESS))
    policy = (lambda: InterleavePolicy(machine.node_ids())) if interleave else (lambda: None)
    process = kernel.create_process("p", socket=1, pt_policy=policy(), data_policy=policy())
    size = 12 * MIB
    va = kernel.sys_mmap(process, size).value
    quarter = size // 4
    for socket in range(4):
        start = va + socket * quarter
        kernel.fault_handler.populate(process, start, start + quarter, socket, allow_huge=thp)
    if replicate:
        kernel.mitosis.replicate_on_all_sockets(process)
    return kernel, process


class TestDumpMatchesPerEntryLoop:
    @pytest.mark.parametrize(
        "config",
        [{}, {"thp": True}, {"interleave": True}, {"replicate": True}, {"thp": True, "replicate": True}],
        ids=["native", "thp", "interleave", "replicated", "replicated-thp"],
    )
    def test_every_copy(self, config):
        kernel, process = populated(**config)
        tree = process.mm.tree
        for socket in (None, 0, 1, 2, 3):
            got = dump_tree(tree, kernel.physmem, 4, socket=socket)
            expected = oracle_dump_tree(tree, kernel.physmem, 4, socket=socket)
            assert got == expected
            for cells in got.cells.values():
                for cell in cells:
                    counts = [cell.pages, *cell.pointers_to, *cell.leaf_pointers_to]
                    assert all(type(count) is int for count in counts)
        assert sum(got.leaf_pointer_distribution()) == len(process.mm.frames)

    def test_leaf_outside_memory_raises_the_same_error(self, tree, physmem2):
        tree.map_page(0x0000, physmem2.alloc_frame(0).pfn, FLAGS)
        end = 2 * physmem2.machine.sockets[0].memory_bytes // PAGE_SIZE
        tree.map_page(0x1000, end + 7, FLAGS)
        tree.map_page(0x2000, end + 9, FLAGS)
        with pytest.raises(TopologyError) as expected:
            oracle_dump_tree(tree, physmem2, 2)
        with pytest.raises(TopologyError) as got:
            dump_tree(tree, physmem2, 2)
        assert str(got.value) == str(expected.value) == f"pfn {end + 7} outside physical memory"


class TestRemoteLeafFractions:
    """``remote_leaf_fractions`` reads what a Fig. 3 dump of each socket's
    CR3 reads: the same leaf counts per node of the table page holding
    them, and the same fractions, bit for bit."""

    @pytest.mark.parametrize(
        "config",
        [
            {}, {"thp": True}, {"interleave": True}, {"replicate": True},
            {"thp": True, "replicate": True}, {"migrate": True}, {"swap": True},
            {"not-present": True},
        ],
        ids=[
            "native", "thp", "interleave", "replicated", "replicated-thp", "migrated",
            "swapped", "not-present",
        ],
    )
    def test_matches_dump_tree(self, config, monkeypatch):
        migrate = config.pop("migrate", False)
        swap = config.pop("swap", False)
        not_present = config.pop("not-present", False)
        kernel, process = populated(**config)
        tree = process.mm.tree
        if migrate:
            migrate_page_tables(kernel, process, target_socket=2, free_origin=True)
        if swap:
            # Swapped-out pages leave holes in their leaf tables.
            assert kernel.swap.reclaim(process, target_pages=300) > 0
        if not_present:
            # A non-zero entry without the present bit, in the root and in
            # a leaf table, is no leaf and no link: neither count reads it.
            leaf = next(
                p for p in tree.registry.values() if p.level == LEAF_LEVEL and 0 in p.entries
            )
            for page in (tree.root, leaf):
                index = page.entries.index(0)
                tree.ops.apply_entry_write(page, index, (leaf.pfn << 12) | PTE_WRITABLE)
        counted = {}
        census = dump_module._leaf_entries_per_node

        def spy(registry, root_pfn, n_sockets):
            counted[root_pfn] = census(registry, root_pfn, n_sockets)
            return counted[root_pfn]

        monkeypatch.setattr(dump_module, "_leaf_entries_per_node", spy)
        fractions = remote_leaf_fractions(tree, 4)
        dumps = {s: dump_tree(tree, kernel.physmem, 4, socket=s) for s in range(4)}
        assert fractions == {s: dump.remote_leaf_fraction(s) for s, dump in dumps.items()}
        assert counted == {
            dump.root_pfn: dump.leaf_pte_location_distribution() for dump in dumps.values()
        }
        assert len(counted) == (4 if "replicate" in config else 1)
        if not_present:
            assert leaf.valid_count < sum(map(bool, leaf.entries))
        if migrate:
            assert {page.node for page in tree.registry.values()} == {2}
            assert fractions == {0: 1.0, 1: 1.0, 2: 0.0, 3: 1.0}

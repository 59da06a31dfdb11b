"""The runtime PTE write sanitizer: catches hand-injected bypassing writes
while leaving every legitimate PV-Ops path untouched."""

from __future__ import annotations

import pytest

from repro.errors import PTEWriteBypassError
from repro.kernel.pvops import NativePagingOps
from repro.lint.sanitizer import (
    GuardedEntries,
    PTESanitizer,
    env_enabled,
    simulated_hardware,
)
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.machine.topology import Machine
from repro.paging.pagetable import PageTablePage, PageTableTree
from repro.paging.pte import PTE_ACCESSED, PTE_PRESENT, PTE_WRITABLE
from repro.paging.walker import HardwareWalker
from repro.units import MIB

FLAGS = PTE_WRITABLE


@pytest.fixture
def tree_factory():
    def build():
        machine = Machine.homogeneous(2, cores_per_socket=2, memory_per_socket=32 * MIB)
        physmem = PhysicalMemory(machine)
        ops = NativePagingOps(PageTablePageCache(physmem))
        return PageTableTree(ops), physmem

    return build


#: The install/uninstall observability tests need an unguarded baseline,
#: which does not exist when conftest installed a session-wide sanitizer.
needs_no_session_guard = pytest.mark.skipif(
    env_enabled(), reason="REPRO_PTE_SANITIZER session guard active"
)


class TestInstall:
    @needs_no_session_guard
    def test_new_pages_are_guarded_only_while_installed(self, tree_factory):
        sanitizer = PTESanitizer()
        with sanitizer:
            tree, _ = tree_factory()
            assert isinstance(tree.root.entries, GuardedEntries)
        tree_after, _ = tree_factory()
        assert not isinstance(tree_after.root.entries, GuardedEntries)
        assert type(tree_after.root.entries) is list

    @needs_no_session_guard
    def test_install_is_idempotent(self, tree_factory):
        sanitizer = PTESanitizer().install()
        try:
            sanitizer.install()
            tree, _ = tree_factory()
            assert isinstance(tree.root.entries, GuardedEntries)
        finally:
            sanitizer.uninstall()
        sanitizer.uninstall()  # second uninstall is a no-op
        assert PageTablePage.__init__.__name__ == "__init__"

    @pytest.mark.parametrize(
        "value,expected",
        [("1", True), ("true", True), ("ON", True), ("0", False), ("", False)],
    )
    def test_env_flag_parsing(self, value, expected):
        assert env_enabled({"REPRO_PTE_SANITIZER": value}) is expected


class TestVerdicts:
    def test_pv_ops_writes_pass(self, tree_factory):
        with PTESanitizer() as sanitizer:
            tree, physmem = tree_factory()
            tree.map_page(0x1000, physmem.alloc_frame(0).pfn, FLAGS)
            tree.protect_range(0x1000, 0x2000, 0)
            tree.unmap_page(0x1000)
            assert sanitizer.writes_checked > 0
            assert sanitizer.violations == 0

    def test_hand_injected_bypass_raises_with_provenance(self, tree_factory):
        with PTESanitizer() as sanitizer:
            tree, physmem = tree_factory()
            tree.map_page(0x1000, physmem.alloc_frame(0).pfn, FLAGS)
            leaf = tree.leaf_location(0x1000)
            with pytest.raises(PTEWriteBypassError) as excinfo:
                leaf.page.entries[leaf.index] = 0xBAD
            assert sanitizer.violations == 1
            assert "test_sanitizer" in str(excinfo.value)
            record = sanitizer.records[-1]
            assert record.allowed is False
            assert record.value == 0xBAD

    def test_run_store_passes(self, tree_factory):
        with PTESanitizer() as san:
            tree, physmem = tree_factory()
            leaf = tree.leaf_table(0, node_hint=0)
            pfns = [physmem.alloc_frame(0).pfn for _ in range(4)]
            tree.map_run(leaf, 0, pfns, FLAGS)
        assert [tree.translate(i * 4096).pfn for i in range(4)] == pfns
        assert san.violations == 0
        assert san.records[-1].writer == "apply_entry_run" and san.records[-1].index == 0

    def test_hardware_walker_ad_store_is_allowed(self, tree_factory):
        with PTESanitizer() as sanitizer:
            tree, physmem = tree_factory()
            tree.map_page(0x1000, physmem.alloc_frame(0).pfn, FLAGS)
            result = HardwareWalker(tree).walk(0x1000, socket=0, is_write=True)
            assert result.translation is not None
            assert sanitizer.violations == 0
            leaf = tree.leaf_location(0x1000)
            assert leaf.page.entries[leaf.index] & PTE_ACCESSED

    def test_simulated_hardware_block_is_allowed(self, tree_factory):
        with PTESanitizer() as sanitizer:
            tree, physmem = tree_factory()
            tree.map_page(0x1000, physmem.alloc_frame(0).pfn, FLAGS)
            leaf = tree.leaf_location(0x1000)
            with simulated_hardware():
                leaf.page.entries[leaf.index] |= PTE_ACCESSED
            assert sanitizer.violations == 0
            assert sanitizer.records[-1].allowed is True

    def test_non_strict_mode_records_without_raising(self, tree_factory):
        with PTESanitizer(strict=False) as sanitizer:
            tree, physmem = tree_factory()
            tree.map_page(0x1000, physmem.alloc_frame(0).pfn, FLAGS)
            leaf = tree.leaf_location(0x1000)
            leaf.page.entries[leaf.index] = PTE_PRESENT
            assert sanitizer.violations == 1
            assert "1 bypass(es)" in sanitizer.summary()

    def test_resizing_mutation_refused(self, tree_factory):
        with PTESanitizer():
            tree, _ = tree_factory()
            with pytest.raises(PTEWriteBypassError, match="fixed 512-entry"):
                tree.root.entries.append(0)


class TestEndToEnd:
    def test_vector_engine_run_is_clean_under_sanitizer(self):
        """The batched tier's walks store A/D bits through
        ``repro.paging.walker.walk_into``, a hardware writer like ``walk``."""
        from repro.sim.engine import EngineConfig, Simulator
        from repro.sim.scenario import setup_multisocket

        with PTESanitizer() as sanitizer:
            setup = setup_multisocket("canneal", "F+M", footprint=MIB, n_sockets=2, seed=3)
            process = setup.process
            simulator = Simulator(
                setup.kernel, EngineConfig(accesses_per_thread=2_000, seed=3, engine="vector")
            )
            sockets = [thread.socket for thread in process.threads]
            metrics = simulator.run(process, setup.workload, sockets, setup.va_base)
        assert sum(thread.escape_l1_miss for thread in metrics.threads) > 0  # walks ran
        assert any(record.writer == "walk_into" for record in sanitizer.records)
        assert sanitizer.violations == 0

    def test_chaos_scenarios_run_clean_under_sanitizer(self):
        from repro.sim.chaos import SCENARIOS, run_chaos

        with PTESanitizer() as sanitizer:
            for scenario in SCENARIOS:
                report = run_chaos(scenario, seed=7)
                assert report.ok, f"{scenario} failed under sanitizer"
        assert sanitizer.writes_checked > 0
        assert sanitizer.violations == 0

"""Scenario harnesses: Table 2/3 configurations end-to-end (small sizes)."""

from collections import Counter

import pytest

from repro.mem.allocator import HUGE_ORDER
from repro.paging import dump as dump_module
from repro.paging.dump import dump_tree
from repro.sim.engine import EngineConfig
from repro.sim.scenario import (
    MIGRATION_CONFIGS,
    MULTISOCKET_CONFIGS,
    measure,
    run_migration,
    run_multisocket,
    setup_migration,
    setup_multisocket,
)
from repro.units import MIB

FAST = dict(footprint=16 * MIB)
ENGINE = EngineConfig(accesses_per_thread=2500)


class TestMigrationSetups:
    def test_config_catalogue_matches_table2(self):
        assert set(MIGRATION_CONFIGS) == {
            "LP-LD",
            "LP-RD",
            "LP-RDI",
            "RP-LD",
            "RPI-LD",
            "RP-RD",
            "RPI-RDI",
        }

    def test_lp_ld_places_everything_locally(self):
        setup = setup_migration("gups", "LP-LD", **FAST)
        assert setup.observed_remote_leaf()[0] == 0.0
        assert all(m.node == 0 for m in setup.process.mm.frames.values())

    def test_rp_ld_places_only_pt_remotely(self):
        setup = setup_migration("gups", "RP-LD", **FAST)
        assert setup.observed_remote_leaf()[0] == 1.0
        assert all(m.node == 0 for m in setup.process.mm.frames.values())

    def test_lp_rd_places_only_data_remotely(self):
        setup = setup_migration("gups", "LP-RD", **FAST)
        assert setup.observed_remote_leaf()[0] == 0.0
        assert all(m.node == 1 for m in setup.process.mm.frames.values())

    def test_interference_flags_hog_the_right_nodes(self):
        setup = setup_migration("gups", "RPI-LD", **FAST)
        assert setup.kernel.contention.hogged_nodes == {1}
        setup = setup_migration("gups", "RPI-RDI", **FAST)
        assert setup.kernel.contention.hogged_nodes == {1}
        setup = setup_migration("gups", "LP-RDI", **FAST)
        assert setup.kernel.contention.hogged_nodes == {1}

    def test_mitosis_repairs_rpi_ld(self):
        setup = setup_migration("gups", "RPI-LD", mitosis=True, **FAST)
        assert setup.observed_remote_leaf()[0] == 0.0
        assert setup.config == "RPI-LD+M"

    def test_thp_setup_maps_huge(self):
        setup = setup_migration("gups", "LP-LD", thp=True, **FAST)
        assert any(m.order == HUGE_ORDER for m in setup.process.mm.frames.values())
        assert setup.config == "TLP-LD"

    def test_fragmentation_forces_4k_fallback(self):
        setup = setup_migration("gups", "LP-LD", thp=True, fragmentation=1.0, **FAST)
        assert not any(m.order == HUGE_ORDER for m in setup.process.mm.frames.values())
        assert setup.kernel.thp.stats.failure_rate > 0.9


class TestMigrationShapes:
    """The paper's qualitative results, at test scale."""

    def test_remote_pt_slowdown_and_mitosis_repair(self):
        base = run_migration("gups", "LP-LD", engine=ENGINE, **FAST)
        bad = run_migration("gups", "RPI-LD", engine=ENGINE, **FAST)
        fixed = run_migration("gups", "RPI-LD", mitosis=True, engine=ENGINE, **FAST)
        assert bad.runtime_cycles > base.runtime_cycles * 1.5
        assert fixed.runtime_cycles == pytest.approx(base.runtime_cycles, rel=0.05)

    def test_rp_rd_is_worst(self):
        results = {
            name: run_migration("gups", name, engine=ENGINE, **FAST)
            for name in ("LP-LD", "LP-RD", "RP-LD", "RP-RD")
        }
        worst = max(results.values(), key=lambda r: r.runtime_cycles)
        assert worst.config == "RP-RD"
        assert results["LP-LD"].runtime_cycles == min(r.runtime_cycles for r in results.values())

    def test_thp_reduces_walk_overhead(self):
        small = run_migration("gups", "RP-LD", engine=ENGINE, **FAST)
        huge = run_migration("gups", "RP-LD", thp=True, engine=ENGINE, **FAST)
        assert huge.metrics.tlb_miss_rate < small.metrics.tlb_miss_rate
        assert huge.runtime_cycles < small.runtime_cycles


class TestMultisocketSetups:
    def test_config_catalogue(self):
        assert MULTISOCKET_CONFIGS == ("F", "F+M", "F-A", "F-A+M", "I", "I+M")

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            setup_multisocket("canneal", "X", **FAST)

    def test_first_touch_spreads_pt_by_initializer(self):
        setup = setup_multisocket("canneal", "F", **FAST)
        observed = setup.observed_remote_leaf()
        # parallel init: every socket holds a share, so every socket sees
        # a large but sub-100% remote fraction
        assert all(0.4 < frac < 0.95 for frac in observed.values())

    def test_serial_init_skews_to_one_socket(self):
        setup = setup_multisocket("graph500", "F", **FAST)
        observed = setup.observed_remote_leaf()
        assert observed[0] == 0.0
        assert all(observed[s] == 1.0 for s in (1, 2, 3))

    def test_mitosis_makes_all_sockets_local(self):
        setup = setup_multisocket("canneal", "F+M", **FAST)
        assert all(frac == 0.0 for frac in setup.observed_remote_leaf().values())

    @pytest.mark.parametrize("config, dumps", [("F", 1), ("F+M", 4), ("I", 1), ("I+M", 4)])
    def test_observed_remote_leaf_dumps_each_root_once(self, monkeypatch, config, dumps):
        """Each distinct CR3 root is walked once, and the fractions are
        those of a Fig. 3 dump of every socket's CR3."""
        setup = setup_multisocket("canneal", config, **FAST)
        walks = Counter()
        census = dump_module._leaf_entries_per_node

        def counted(registry, root_pfn, n_sockets):
            walks[root_pfn] += 1
            return census(registry, root_pfn, n_sockets)

        monkeypatch.setattr(dump_module, "_leaf_entries_per_node", counted)
        observed = setup.observed_remote_leaf()
        tree, physmem = setup.process.mm.tree, setup.kernel.physmem
        n = setup.kernel.machine.n_sockets
        roots = {tree.ops.root_pfn_for_socket(tree, socket) for socket in range(n)}
        assert walks == Counter(dict.fromkeys(roots, 1))
        assert len(walks) == dumps
        assert observed == {
            socket: dump_tree(tree, physmem, n, socket=socket).remote_leaf_fraction(socket)
            for socket in range(n)
        }

    def test_interleave_distributes_pt_pages(self):
        setup = setup_multisocket("canneal", "I", **FAST)
        dump = setup.dump()
        leaf_pages = [dump.cell(1, s).pages for s in range(4)]
        assert min(leaf_pages) > 0

    def test_measure_collects_all_fields(self):
        setup = setup_multisocket("canneal", "F", **FAST)
        result = measure(setup, ENGINE)
        assert result.metrics.accesses == 4 * ENGINE.accesses_per_thread
        assert result.dump is None  # unread: callers take setup.dump()
        assert set(result.pt_bytes_per_node) == {0, 1, 2, 3}


class TestMultisocketShapes:
    def test_mitosis_never_slows_down(self):
        base = run_multisocket("xsbench", "F", engine=ENGINE, **FAST)
        repl = run_multisocket("xsbench", "F+M", engine=ENGINE, **FAST)
        assert repl.runtime_cycles <= base.runtime_cycles * 1.01
        assert repl.metrics.walk_cycles < base.metrics.walk_cycles

"""Workload generators: determinism, bounds, pattern signatures."""

import numpy as np
import pytest

from repro.units import MIB, PAGE_SIZE
from repro.workloads import (
    MIGRATION_WORKLOADS,
    MULTISOCKET_WORKLOADS,
    WORKLOADS,
    Gups,
    Stream,
    create,
)

ALL_NAMES = sorted(WORKLOADS)


class TestRegistry:
    def test_create_by_name(self):
        workload = create("gups", footprint=8 * MIB)
        assert isinstance(workload, Gups)
        assert workload.footprint == 8 * MIB

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="gups"):
            create("nonsense")

    def test_name_is_case_insensitive(self):
        assert create("GUPS").name == "gups"

    def test_table1_scenario_columns(self):
        # Table 1: 6 multi-socket workloads, 8 migration workloads.
        assert len(MULTISOCKET_WORKLOADS) == 6
        assert len(MIGRATION_WORKLOADS) == 8
        assert set(MULTISOCKET_WORKLOADS) <= set(WORKLOADS)
        assert set(MIGRATION_WORKLOADS) <= set(WORKLOADS)

    def test_ms_workloads_have_paper_footprints(self):
        for name in MULTISOCKET_WORKLOADS:
            assert WORKLOADS[name].profile.paper_footprint_ms > 0

    def test_wm_workloads_have_paper_footprints(self):
        for name in MIGRATION_WORKLOADS:
            assert WORKLOADS[name].profile.paper_footprint_wm > 0


class TestStreams:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_offsets_in_bounds(self, name):
        workload = create(name, footprint=8 * MIB)
        offsets = workload.offsets(0, 2, 2000)
        assert len(offsets) == 2000
        assert offsets.min() >= 0
        assert offsets.max() < workload.footprint

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_deterministic_per_seed(self, name):
        a = create(name, footprint=8 * MIB, seed=7).offsets(0, 2, 500)
        b = create(name, footprint=8 * MIB, seed=7).offsets(0, 2, 500)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_offsets_are_fresh_arrays_the_caller_owns(self, name):
        """The engine adds the mapping base to ``offsets`` in place, so
        every call must hand over its own writeable array."""
        workload = create(name, footprint=8 * MIB, seed=7)
        first = workload.offsets(0, 2, 500)
        second = workload.offsets(0, 2, 500)
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)
        first += 1 << 40
        assert np.array_equal(workload.offsets(0, 2, 500), second)

    def test_different_threads_differ(self):
        workload = create("gups", footprint=8 * MIB)
        a = workload.offsets(0, 2, 500)
        b = workload.offsets(1, 2, 500)
        assert not np.array_equal(a, b)

    def test_deterministic_across_processes(self):
        """The stream must not depend on PYTHONHASHSEED (lint DET003).

        The per-workload seed component used to be ``hash(name)``, which
        is salted per process — every invocation replayed a different
        address stream and no committed benchmark output was reproducible.
        Two subprocesses with different hash seeds must now agree, for
        every registered workload.
        """
        import os
        import subprocess
        import sys

        script = (
            "from repro.workloads import WORKLOADS, create\n"
            "from repro.units import MIB\n"
            "for name in sorted(WORKLOADS):\n"
            "    w = create(name, footprint=8 * MIB, seed=7)\n"
            "    print(name, w.offsets(0, 2, 64).tolist())\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src_dir)
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert len(outputs) == 1

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_writes_match_profile(self, name):
        workload = create(name, footprint=8 * MIB)
        writes = workload.writes(0, 4000)
        frac = writes.mean()
        assert abs(frac - workload.profile.write_fraction) < 0.05


class TestPatternSignatures:
    def test_gups_is_uniform(self):
        workload = create("gups", footprint=8 * MIB)
        pages = workload.offsets(0, 1, 20000) // PAGE_SIZE
        # Uniform: unique-page count near the theoretical expectation.
        unique_fraction = len(np.unique(pages)) / workload.n_pages
        expected = 1 - np.exp(-20000 / workload.n_pages)
        assert abs(unique_fraction - expected) < 0.05

    def test_stream_is_sequential(self):
        workload = Stream(footprint=8 * MIB)
        offsets = workload.offsets(0, 1, 1000)
        deltas = np.diff(offsets)
        assert (deltas[deltas > 0] == 64).all()

    def test_zipf_workloads_are_skewed(self):
        workload = create("memcached", footprint=8 * MIB)
        pages = workload.offsets(0, 1, 20000) // PAGE_SIZE
        _, counts = np.unique(pages, return_counts=True)
        top = np.sort(counts)[::-1][:20].sum() / 20000
        assert top > 0.05  # hot pages exist...
        assert len(counts) > workload.n_pages * 0.2  # ...but the tail is wide

    def test_btree_hot_region(self):
        workload = create("btree", footprint=8 * MIB)
        offsets = workload.offsets(0, 1, 20000)
        hot_limit = int(workload.n_pages * workload.HOT_REGION_FRACTION) * PAGE_SIZE
        hot_fraction = (offsets < hot_limit).mean()
        assert hot_fraction > workload.HOT_ACCESS_FRACTION * 0.8


class TestInitPartition:
    def test_parallel_init_partitions_cover_footprint(self):
        workload = create("canneal", footprint=8 * MIB)
        spans = [workload.init_partition(t, 4) for t in range(4)]
        assert spans[0][0] == 0
        assert spans[-1][1] == workload.footprint
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start == prev_end

    def test_serial_init_gives_all_to_thread0(self):
        workload = create("graph500", footprint=8 * MIB)
        assert workload.profile.serial_init
        assert workload.init_partition(0, 4) == (0, workload.footprint)
        assert workload.init_partition(2, 4) == (0, 0)

    def test_footprint_floor(self):
        with pytest.raises(ValueError):
            create("gups", footprint=100)

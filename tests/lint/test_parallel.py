"""Lint runs are deterministic and leave the process as they found it.

A lint run is a pure function of the linted sources. Two cold runs
(nothing parsed) and a rerun over the seeded fixtures give the same
findings and byte-identical SARIF, and the ``--stats`` phase timings
never reach the report. The run pauses the cyclic garbage collector and
hands it back in the state the caller left it.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

from repro.lint import clear_parse_cache, lint_paths, render_sarif

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestJobsDeterminism:
    """Cold, cold again and a rerun: same findings, same SARIF bytes."""

    def test_findings_identical_across_jobs(self):
        clear_parse_cache()
        first = lint_paths([FIXTURES], whole_program=True)
        clear_parse_cache()
        second = lint_paths([FIXTURES], whole_program=True)
        rerun = lint_paths([FIXTURES], whole_program=True)
        assert first.findings, "the seeded fixtures must produce findings"
        assert first.findings == second.findings == rerun.findings
        assert first.files_checked == second.files_checked == rerun.files_checked
        assert first.dataflow_stats == second.dataflow_stats == rerun.dataflow_stats
        reports = {
            render_sarif(result, result.findings).encode()
            for result in (first, second, rerun)
        }
        assert len(reports) == 1

    def test_timings_never_reach_sarif(self):
        result = lint_paths([SRC / "trace"], whole_program=True)
        assert result.timings is not None
        assert "jobs" not in result.timings
        for phase in ("parse", "per_file", "index", "dataflow",
                      "whole_program", "total"):
            assert phase in result.timings
        assert "timings" not in render_sarif(result, result.findings)


@pytest.fixture
def collector_state():
    """Restore the collector whatever a test leaves it in."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorState:
    """``lint_paths`` pauses the collector only for its own run."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_as_found(self, collector_state, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        lint_paths([FIXTURES], whole_program=True)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_failed_run_leaves_the_collector_as_found(self, collector_state, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        with pytest.raises(KeyError, match="NOPE999"):
            lint_paths([FIXTURES], rules=["NOPE999"])
        assert gc.isenabled() is enabled

    def test_collector_is_paused_during_the_run(self, collector_state, monkeypatch):
        import repro.lint.core as core

        seen = []
        real = core._lint_paths

        def spy(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(core, "_lint_paths", spy)
        gc.enable()
        lint_paths([FIXTURES])
        assert seen == [False]
        assert gc.isenabled()

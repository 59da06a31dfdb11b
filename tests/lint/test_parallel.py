"""Lint runs are deterministic: the caches change the work, not the report.

A lint run is a pure function of the linted sources. Two cold runs
(nothing parsed, fresh summary-cache directories) and a warm rerun over
the seeded fixtures give the same findings and byte-identical SARIF,
and the ``--stats`` phase timings never reach the report.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import clear_parse_cache, lint_paths, render_sarif

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestJobsDeterminism:
    """Cold, cold again and warm: same findings, same SARIF bytes."""

    def test_findings_identical_across_jobs(self, tmp_path):
        def lint(cache: str):
            return lint_paths(
                [FIXTURES], whole_program=True, dataflow_cache_dir=tmp_path / cache
            )

        clear_parse_cache()
        first = lint("a")
        clear_parse_cache()
        second = lint("b")
        warm = lint("b")
        assert first.dataflow_stats["summary_hits"] == 0
        assert second.dataflow_stats["summary_hits"] == 0
        assert warm.dataflow_stats["summary_misses"] == 0
        assert first.findings, "the seeded fixtures must produce findings"
        assert first.findings == second.findings == warm.findings
        assert first.files_checked == second.files_checked == warm.files_checked
        reports = {
            render_sarif(result, result.findings).encode()
            for result in (first, second, warm)
        }
        assert len(reports) == 1

    def test_timings_never_reach_sarif(self, tmp_path):
        result = lint_paths(
            [SRC / "trace"], whole_program=True,
            dataflow_cache_dir=tmp_path / "cache",
        )
        assert result.timings is not None
        assert "jobs" not in result.timings
        for phase in ("parse", "per_file", "index", "dataflow",
                      "whole_program", "total"):
            assert phase in result.timings
        assert "timings" not in render_sarif(result, result.findings)

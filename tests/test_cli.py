"""The numactl-style CLI."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestNumactl:
    def test_plain_run(self, capsys):
        code, out, _ = run(
            capsys, "numactl", "gups", "--footprint-mib", "16", "--accesses", "2000",
            "--sockets", "2",
        )
        assert code == 0
        assert "runtime_cycles=" in out
        assert "pgtablerepl=off" in out

    def test_pgtablerepl_flag(self, capsys):
        code, out, _ = run(
            capsys, "numactl", "gups", "-r", "0-1", "--sockets", "2",
            "--footprint-mib", "16", "--accesses", "2000",
        )
        assert code == 0
        assert "pgtablerepl=[0, 1]" in out

    def test_remote_pt_is_slower_than_replicated(self, capsys):
        def runtime(*extra):
            _, out, _ = run(
                capsys, "numactl", "gups", "--sockets", "2", "--footprint-mib", "16",
                "--accesses", "3000", "--pt-node", "1", *extra,
            )
            return float(next(l for l in out.splitlines() if l.startswith("runtime")).split("=")[1])

        slow = runtime()
        fast = runtime("-r", "0")
        assert fast < slow

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["numactl", "nonsense"])

    def test_perf_flag(self, capsys):
        code, out, _ = run(
            capsys, "numactl", "gups", "--perf", "--sockets", "2",
            "--footprint-mib", "16", "--accesses", "1000",
        )
        assert code == 0
        assert "dtlb_misses.walk_duration" in out
        assert "page walker active for" in out


class TestScenario:
    def test_migration_scenario(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "migration", "gups", "RPI-LD",
            "--footprint-mib", "16", "--accesses", "2000",
        )
        assert code == 0
        assert "config=RPI-LD" in out
        assert "s0=100%" in out

    def test_migration_with_mitosis(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "migration", "gups", "RPI-LD", "--mitosis",
            "--footprint-mib", "16", "--accesses", "2000",
        )
        assert code == 0
        assert "config=RPI-LD+M" in out
        assert "s0=0%" in out

    def test_multisocket_scenario(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "multisocket", "canneal", "F+M",
            "--footprint-mib", "16", "--accesses", "1000",
        )
        assert code == 0
        assert "config=F+M" in out

    def test_bad_config_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "scenario", "migration", "gups", "NOPE", "--footprint-mib", "16"
        )
        assert code == 2
        assert "unknown migration config" in err


@pytest.mark.parametrize("value", ["0", "-8"])
@pytest.mark.parametrize(
    "argv",
    [
        ["numactl", "gups"],
        ["scenario", "migration", "gups", "RPI-LD"],
        ["dump", "memcached"],
        ["fleet", "sweep"],
        ["trace", "dump", "memcached"],
    ],
    ids=["numactl", "scenario", "dump", "fleet", "trace"],
)
def test_footprint_below_one_mib_is_usage_error(capsys, tmp_path, argv, value):
    cache = tmp_path / "cache"
    extra = ["--cache-dir", str(cache)] if argv[0] == "fleet" else []
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--footprint-mib", value, *extra])
    assert exc.value.code == 2
    assert "argument --footprint-mib: must be at least 1" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["numactl", "gups", "--footprint-mib", "8"],
        ["scenario", "migration", "gups", "LP-LD", "--footprint-mib", "8"],
        ["fleet", "sweep", "--footprint-mib", "8"],
    ],
    ids=["numactl", "scenario", "fleet"],
)
def test_accesses_below_one_is_usage_error(capsys, tmp_path, argv, value):
    cache = tmp_path / "cache"
    extra = ["--cache-dir", str(cache)] if argv[0] == "fleet" else []
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--accesses", value, *extra])
    assert exc.value.code == 2
    assert "argument --accesses: must be at least 1" in capsys.readouterr().err
    assert not cache.exists()


def exit_and_errors(capsys, *argv):
    """``main``'s exit code, returned or raised by argparse as
    ``SystemExit``, and the ``error:`` lines it printed."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    return code, [line for line in err.splitlines() if "error:" in line]


@pytest.mark.parametrize("traced", [False, True], ids=["numactl", "trace"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--sockets", "0"],
        ["--sockets", "2", "--cpunodebind", "5"],
        ["--sockets", "2", "--membind", "7"],
        ["--sockets", "2", "--pt-node", "3"],
        ["--sockets", "2", "--pt-node", "-1"],
        ["--sockets", "2", "--pgtablerepl", "0-5"],
        ["--sockets", "2", "--pgtablerepl", "x"],
    ],
    ids=[
        "sockets-0", "cpunodebind-5", "membind-7", "pt-node-3", "pt-node-negative",
        "pgtablerepl-0-5", "pgtablerepl-x",
    ],
)
def test_out_of_range_topology_flag_is_usage_error(capsys, tmp_path, traced, flags):
    trace = ["trace", "--out", str(tmp_path / "t.json"), "--no-summary"] if traced else []
    code, errors = exit_and_errors(
        capsys, *trace, "numactl", "gups", "--footprint-mib", "4", "--accesses", "500", *flags
    )
    assert code == 2
    assert len(errors) == 1
    assert flags[-2] in errors[0]


@pytest.mark.parametrize("value", ["1.5", "-0.5"])
def test_fragmentation_outside_unit_interval_is_usage_error(capsys, value):
    code, errors = exit_and_errors(
        capsys, "scenario", "migration", "gups", "RPI-LD", "--footprint-mib", "4",
        "--accesses", "500", f"--fragmentation={value}",
    )
    assert code == 2
    assert errors == [
        f"repro scenario: error: argument --fragmentation: must be in [0, 1], got {value}"
    ]


class TestAnalysisCommands:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "dump", "memcached", "--footprint-mib", "16")
        assert code == 0
        assert "L4" in out and "Socket 3" in out

    def test_table4(self, capsys):
        code, out, _ = run(capsys, "table4")
        assert code == 0
        assert "1.231" in out and "16.00 TiB" in out


class TestChaos:
    def test_default_scenario_degrades_recovers_and_verifies(self, capsys):
        code, out, _ = run(capsys, "chaos", "--seed", "7")
        assert code == 0
        assert "enable degraded" in out
        assert "complete-mask" in out
        assert "degradations    : 1" in out
        assert "recoveries      : 1" in out
        assert "verifier: OK" in out

    @pytest.mark.parametrize(
        "scenario", ["replication-oom", "shootdown-storm", "swap-stall"]
    )
    def test_every_scenario_exits_clean(self, capsys, scenario):
        code, out, _ = run(capsys, "chaos", "--scenario", scenario, "--seed", "11")
        assert code == 0
        assert "verifier: OK" in out
        assert "faults injected" in out

    def test_same_seed_same_report(self, capsys):
        _, first, _ = run(capsys, "chaos", "--seed", "21")
        _, second, _ = run(capsys, "chaos", "--seed", "21")
        assert first == second

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "chaos", "--scenario", "split-brain")

    def test_pte_sanitizer_flag_reports_checked_stores(self, capsys):
        code, out, _ = run(capsys, "chaos", "--seed", "7", "--pte-sanitizer")
        assert code == 0
        assert "PTE sanitizer:" in out
        assert "0 bypass(es)" in out

    def test_json_flag_prints_structured_verdict(self, capsys):
        import json

        code, out, _ = run(capsys, "chaos", "--seed", "7", "--json")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["schema"] == "repro-chaos-verdict/1"
        assert verdict["scenario"] == "replication-oom"
        assert verdict["seed"] == 7
        assert verdict["ok"] is True
        assert verdict["verify"]["ok"] is True
        assert verdict["faults_injected"] > 0
        assert verdict["recoveries"] >= 1
        assert isinstance(verdict["faults_by_site"], dict)

    def test_json_verdict_is_seed_deterministic(self, capsys):
        _, first, _ = run(capsys, "chaos", "--seed", "21", "--json")
        _, second, _ = run(capsys, "chaos", "--seed", "21", "--json")
        assert first == second

    def test_intensity_scales_the_fault_plan(self, capsys):
        import json

        def verdict(intensity):
            _, out, _ = run(
                capsys, "chaos", "--scenario", "shootdown-storm", "--seed", "11",
                "--intensity", intensity, "--json",
            )
            return json.loads(out)

        gentle, hostile = verdict("0.25"), verdict("4.0")
        assert gentle["intensity"] == 0.25 and hostile["intensity"] == 4.0
        assert hostile["faults_injected"] > gentle["faults_injected"]

    @pytest.mark.parametrize("intensity", ["0", "-1.5"])
    def test_non_positive_intensity_is_usage_error(self, capsys, intensity):
        code, _, err = run(capsys, "chaos", "--intensity", intensity)
        assert code == 2
        assert "error: intensity must be positive" in err


class TestPerf:
    @pytest.mark.parametrize(
        "flag, message",
        [("--repeat", "repeat must be >= 1"), ("--accesses", "accesses must be >= 1")],
        ids=["repeat", "accesses"],
    )
    def test_non_positive_counts_are_usage_errors(self, capsys, tmp_path, flag, message):
        out = tmp_path / "bench.json"
        code, _, err = run(capsys, "perf", flag, "0", "--out", str(out))
        assert code == 2
        assert f"error: {message}" in err
        assert not out.exists()


class TestFleet:
    def test_campaign_inline_and_resume(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "fleet", "campaign", "--scenarios", "replication-oom",
            "--seeds", "0-2", "--workers", "0", "--cache-dir", cache_dir,
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "3 job(s)" in out and "3 computed" in out

        code, out, _ = run(capsys, *argv)  # resume: all hits
        assert code == 0
        assert "3 cached" in out and "0 computed" in out

    def test_campaign_json_report(self, capsys, tmp_path):
        import json

        code, out, _ = run(
            capsys, "fleet", "campaign", "--scenarios", "swap-stall",
            "--seeds", "5", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"), "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "repro-fleet-report/1"
        assert report["jobs"] == 1 and report["computed"] == 1
        assert report["chaos"]["cells"] == 1
        assert report["outcomes"][0]["payload"]["scenario"] == "swap-stall"

    def test_report_file_written(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "fleet.json"
        code, _, err = run(
            capsys, "fleet", "campaign", "--scenarios", "swap-stall",
            "--seeds", "1", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(report_path),
        )
        assert code == 0
        assert "report written to" in err
        assert json.loads(report_path.read_text())["jobs"] == 1

    def test_injected_crashes_exercise_quarantine_exit_code(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "fleet", "campaign", "--scenarios", "replication-oom",
            "--seeds", "0", "--workers", "0", "--max-attempts", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--inject-crash", "1.0",
        )
        assert code == 1  # the only cell is quarantined
        assert "1 quarantined" in out
        assert "reproduce: python -m repro.cli chaos" in out

    def test_sweep_mode_runs_scenario_cells(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "fleet", "sweep", "--workloads", "gups",
            "--configs", "F,F+M", "--seeds", "1234", "--workers", "0",
            "--accesses", "2000", "--footprint-mib", "16",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        assert "2 job(s)" in out and "2 computed" in out

    def test_unknown_workload_rejected_before_any_cell(self, capsys, tmp_path):
        code, errors = exit_and_errors(
            capsys, "fleet", "sweep", "--workloads", "gups,nosuch", "--configs", "F",
            "--workers", "0", "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 2
        assert len(errors) == 1 and "unknown workload 'nosuch'" in errors[0]
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--inject-crash", "1.5", "must be in [0, 1], got 1.5"),
            ("--inject-crash", "-0.5", "must be in [0, 1], got -0.5"),
            ("--inject-hang", "-2", "must be at least 0, got -2"),
        ],
    )
    def test_fault_injection_flag_out_of_range_is_usage_error(
        self, capsys, tmp_path, flag, value, message
    ):
        code, errors = exit_and_errors(
            capsys, "fleet", "campaign", "--seeds", "0", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"), f"{flag}={value}",
        )
        assert code == 2
        assert errors == [f"repro fleet: error: argument {flag}: {message}"]
        assert not (tmp_path / "cache").exists()

    def test_bad_seed_list_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "fleet", "campaign", "--seeds", "banana",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--workers", "-1", "workers must be >= 0"),
            ("--timeout", "0", "timeout must be positive"),
            ("--timeout", "-1", "timeout must be positive"),
        ],
    )
    def test_invalid_dispatch_settings_rejected(
        self, capsys, tmp_path, flag, value, message
    ):
        code, out, err = run(
            capsys, "fleet", "sweep", "--workloads", "gups", "--configs", "F",
            "--cache-dir", str(tmp_path / "cache"), flag, value,
        )
        assert code == 2
        assert f"error: {message}" in err
        assert out == ""  # rejected before any cell ran
        assert not (tmp_path / "cache").exists()

    def test_max_attempts_below_one_rejected(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "fleet", "campaign", "--seeds", "0", "--max-attempts", "0",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 2
        assert "error: max_attempts must be >= 1" in err
        assert out == ""  # rejected before any cell ran
        assert not (tmp_path / "cache").exists()

    def test_invalid_engine_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        code, out, err = run(
            capsys, "fleet", "sweep", "--workloads", "gups", "--configs", "F",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 2
        assert "error: unknown engine 'turbo'" in err
        assert out == ""  # rejected before any cell ran
        assert not (tmp_path / "cache").exists()

    def test_traced_fleet_exports_fleet_spans(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code, _, _ = run(
            capsys, "trace", "--out", str(out_path),
            "fleet", "campaign", "--scenarios", "replication-oom",
            "--seeds", "3", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        names = [e["name"] for e in json.loads(out_path.read_text())["traceEvents"]]
        assert "fleet.run" in names
        assert "fleet-verdict" in names


class TestTrace:
    def test_traced_chaos_exports_chrome_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code, out, _ = run(
            capsys, "trace", "--out", str(out_path), "chaos", "--seed", "7"
        )
        assert code == 0
        assert "verifier: OK" in out
        assert "trace written to" in out
        assert "trace summary:" in out
        document = json.loads(out_path.read_text())
        names = [e["name"] for e in document["traceEvents"]]
        assert "chaos.replication-oom" in names
        assert "fault" in names

    def test_jsonl_export(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "events.jsonl"
        code, _, _ = run(
            capsys, "trace", "--out", str(out_path), "--export", "jsonl",
            "chaos", "--seed", "7",
        )
        assert code == 0
        records = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert any(r["name"] == "fault" for r in records)

    def test_no_summary_flag(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "trace", "--out", str(tmp_path / "t.json"), "--no-summary",
            "chaos", "--seed", "7",
        )
        assert code == 0
        assert "trace summary:" not in out

    def test_session_uninstalled_after_run(self, capsys, tmp_path):
        from repro.trace import current_session

        run(capsys, "trace", "--out", str(tmp_path / "t.json"), "chaos", "--seed", "7")
        assert current_session() is None

    def test_traced_numactl_emits_walker_spans(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "numactl.json"
        code, out, _ = run(
            capsys, "trace", "--out", str(out_path), "numactl", "gups",
            "--sockets", "2", "--footprint-mib", "16", "--accesses", "2000",
        )
        assert code == 0
        assert "runtime_cycles=" in out
        document = json.loads(out_path.read_text())
        walks = [e for e in document["traceEvents"] if e["name"] == "walk"]
        assert walks
        assert all(e["ph"] == "X" for e in walks)

    def test_trace_requires_a_subcommand(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            run(capsys, "trace", "--out", str(tmp_path / "t.json"))

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_capacity_below_one_is_usage_error(self, capsys, tmp_path, value):
        out_path = tmp_path / "t.json"
        code, errors = exit_and_errors(
            capsys, "trace", "--out", str(out_path), "--capacity", value, "chaos",
        )
        assert code == 2
        assert len(errors) == 1
        assert "argument --capacity: must be at least 1" in errors[0]
        assert not out_path.exists()

    @pytest.mark.parametrize("export", ["chrome", "jsonl"])
    def test_out_in_missing_directory_is_usage_error(
        self, capsys, tmp_path, monkeypatch, export
    ):
        import repro.cli as cli

        ran = []
        monkeypatch.setitem(cli.COMMANDS, "chaos", lambda args: ran.append(args) or 0)
        out_path = tmp_path / "missing" / "t.json"
        code, errors = exit_and_errors(
            capsys, "trace", "--out", str(out_path), "--export", export, "chaos",
        )
        assert code == 2
        assert errors == [f"error: --out {out_path}: no such directory: {out_path.parent}"]
        assert not ran  # rejected before the traced command ran

    @pytest.mark.parametrize("export", ["chrome", "jsonl"])
    def test_out_that_is_a_directory_is_usage_error(
        self, capsys, tmp_path, monkeypatch, export
    ):
        import repro.cli as cli

        ran = []
        monkeypatch.setitem(cli.COMMANDS, "chaos", lambda args: ran.append(args) or 0)
        code, errors = exit_and_errors(
            capsys, "trace", "--out", str(tmp_path), "--export", export, "chaos",
        )
        assert code == 2
        assert errors == [f"error: --out {tmp_path}: is a directory"]
        assert not ran


class TestLint:
    def test_repo_is_clean_with_baseline(self, capsys):
        code, out, _ = run(capsys, "lint")
        assert code == 0
        assert "0 finding(s)" in out

    def test_violation_fails_the_run(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("page.entries[0] = 0\n")
        code, out, _ = run(capsys, "lint", str(bad))
        assert code == 1
        assert "PVOPS001" in out

    def test_json_format(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        code, out, _ = run(capsys, "lint", str(bad), "--format", "json")
        assert code == 1
        document = json.loads(out)
        assert document["version"] == 1
        assert [f["rule"] for f in document["findings"]] == ["DET001"]

    def test_no_baseline_surfaces_grandfathered_findings(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("page = PageTablePage(frame=frame, level=1)\n")
        baseline = ["--baseline", str(tmp_path / "baseline.json")]
        assert run(capsys, "lint", str(bad), *baseline, "--write-baseline")[0] == 0
        assert run(capsys, "lint", str(bad), *baseline)[0] == 0
        code, out, _ = run(capsys, "lint", str(bad), *baseline, "--no-baseline")
        assert code == 1
        assert "PVOPS002" in out

    def test_rule_subset(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\npage.entries[0] = 0\n")
        code, out, _ = run(capsys, "lint", str(bad), "--rules", "PVOPS001")
        assert code == 1
        assert "PVOPS001" in out and "DET001" not in out

    def test_unknown_rule_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lint", "--rules", "NOPE999")
        assert code == 2
        assert err.startswith("error: unknown rule(s) NOPE999")

    def test_missing_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "lint", str(tmp_path / "no-such-dir"))
        assert code == 2
        assert err.startswith("error:") and "no-such-dir" in err
        assert "finding(s)" not in out

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "lint", "--whole-program", str(tmp_path / "gone.py")
        )
        assert code == 2
        assert err.startswith("error:") and "gone.py" in err

    def test_directory_without_python_files_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "notes.txt").write_text("no code here\n")
        code, out, err = run(capsys, "lint", str(tmp_path))
        assert code == 2
        assert err.startswith("error:") and "no Python files" in err
        assert "finding(s)" not in out

    def test_explain_prints_the_rule_contract(self, capsys):
        code, out, _ = run(capsys, "lint", "--explain", "DETFLOW001")
        assert code == 0
        assert out.startswith("DETFLOW001 (whole-program):")
        assert "Sanctioned wrappers" in out
        assert "# lint: allow[DETFLOW001]" in out

    def test_explain_covers_per_file_rules_too(self, capsys):
        code, out, _ = run(capsys, "lint", "--explain", "DET001")
        assert code == 0
        assert out.startswith("DET001 (per-file):")

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lint", "--explain", "NOPE999")
        assert code == 2
        assert err.startswith("error: unknown rule 'NOPE999'")
        assert "DETFLOW001" in err  # the message lists the vocabulary

    def test_stats_file_holds_counters_and_timings(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text(
            "# dataflow: sink[determinism] -- replayed payload\n"
            "def record(payload):\n"
            "    return payload\n"
            "import os\n"
            "def emit():\n"
            "    return record({'pid': os.getpid()})\n"
        )
        stats = tmp_path / "stats.json"
        args = (
            "lint", str(bad), "--whole-program", "--no-baseline",
            "--stats", str(stats),
        )
        code, first_out, _ = run(capsys, *args)
        assert code == 1 and "DETFLOW001" in first_out
        document = json.loads(stats.read_text())
        assert document["modules"] == 1 and document["functions"] == 2
        assert set(document["timings"]) == {
            "parse", "per_file", "index", "dataflow", "whole_program", "total",
        }
        code, second_out, _ = run(capsys, *args)
        assert code == 1 and second_out == first_out

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_stats_is_usage_error_before_the_run(
        self, capsys, tmp_path, monkeypatch, where
    ):
        import repro.lint

        ran = []
        monkeypatch.setattr(
            repro.lint, "lint_paths", lambda *a, **k: ran.append(a)
        )
        bad = tmp_path / "bad.py"
        bad.write_text("page.entries[0] = 0\n")
        if where == "directory":
            stats, problem = tmp_path, "is a directory"
        else:
            stats = tmp_path / "missing" / "s.json"
            problem = f"no such directory: {stats.parent}"
        code, out, err = run(
            capsys, "lint", str(bad), "--whole-program", "--stats", str(stats)
        )
        assert code == 2
        assert err.splitlines() == [f"error: --stats {stats}: {problem}"]
        assert out == ""
        assert not ran  # rejected before linting

    def test_whole_program_run_writes_no_file_in_cwd(
        self, capsys, tmp_path, monkeypatch
    ):
        checkout = tmp_path / "checkout"
        (checkout / "pkg").mkdir(parents=True)
        (checkout / "pyproject.toml").write_text("")
        (checkout / "pkg" / "mod.py").write_text("def f():\n    return 1\n")
        monkeypatch.chdir(checkout)
        before = sorted(p.relative_to(checkout) for p in checkout.rglob("*"))
        code, out, _ = run(
            capsys, "lint", "pkg", "--whole-program", "--no-baseline"
        )
        assert code == 0 and "0 finding(s)" in out
        assert sorted(p.relative_to(checkout) for p in checkout.rglob("*")) == before

    def test_json_report_carries_dataflow_stats(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n")
        code, out, _ = run(
            capsys, "lint", str(bad), "--whole-program", "--no-baseline",
            "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["dataflow"] == {"modules": 1, "functions": 0}

    def test_write_baseline_round_trip(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("page.entries[0] = 0\n")
        baseline = tmp_path / "baseline.json"
        code, _, err = run(
            capsys, "lint", str(bad), "--baseline", str(baseline), "--write-baseline"
        )
        assert code == 0 and baseline.exists()
        code, out, _ = run(capsys, "lint", str(bad), "--baseline", str(baseline))
        assert code == 0
        assert "1 baselined" in out

"""The docs gate: CLI/docs parity and link integrity.

Documentation drifts silently — a renamed subcommand, a moved page, a
deleted example, a removed flag. These tests make the drift loud: every
CLI subcommand must appear in the README and the docs, every documented
invocation must use only real subcommands and flags, every relative
markdown link must resolve, and docs/index.md must list every docs page.
"""

import argparse
import re

from repro.cli import build_parser

# [text](target) — excludes autolinks (<http://...>) and reference-style
# definitions, which the docs don't use for local files.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# A documented invocation: its arguments run to the end of the line, a
# closing backtick, a comment, a pipe or a redirection.
_INVOCATION = re.compile(
    r"python3? -m repro(?:\.cli)?(?=\s|`|$)([^`#|>;&\n]*)", re.MULTILINE
)


def _subparsers(parser):
    """name -> sub-parser of ``parser``'s subcommand action ({} if none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def cli_subcommands():
    """Top-level subcommand names, straight from the argparse tree."""
    return sorted(_subparsers(build_parser()))


def undefined_flags(argv):
    """Problems with one documented ``repro`` argument list: an unknown
    subcommand, or a ``--flag`` the parser it reaches does not define.
    A token naming a sub-parser hands the rest of the line to it, so on
    a ``trace`` line the flags before the wrapped command are
    ``trace``'s and the rest are the wrapped command's."""
    parser = build_parser()
    commands = _subparsers(parser)
    if not argv or argv[0] not in commands:
        return [f"unknown subcommand {argv[:1]}"]
    parser = commands[argv[0]]
    problems = []
    for token in argv[1:]:
        wrapped = _subparsers(parser)
        if token in wrapped:
            parser = wrapped[token]
        elif token.startswith("--"):
            flag = token.split("=", 1)[0]
            if flag not in parser._option_string_actions:
                problems.append(f"{parser.prog} has no {flag}")
    return problems


class TestCliDocumented:
    def test_parser_knows_the_expected_commands(self):
        assert set(cli_subcommands()) == {
            "numactl", "scenario", "dump", "table4", "chaos", "fleet", "lint",
            "trace", "perf",
        }

    def test_every_subcommand_appears_in_readme(self, repo_root):
        readme = (repo_root / "README.md").read_text()
        missing = [c for c in cli_subcommands() if c not in readme]
        assert not missing, f"README.md does not mention: {missing}"

    def test_every_subcommand_appears_in_docs(self, repo_root):
        corpus = "".join(
            page.read_text() for page in (repo_root / "docs").glob("*.md")
        )
        missing = [c for c in cli_subcommands() if c not in corpus]
        assert not missing, f"docs/ never mention: {missing}"

    def test_cli_module_docstring_mentions_every_subcommand(self):
        import repro.cli

        doc = repro.cli.__doc__ or ""
        missing = [c for c in cli_subcommands() if c not in doc]
        assert not missing, f"repro.cli docstring does not mention: {missing}"

    def test_documented_invocations_use_real_flags(self, markdown_pages):
        import repro.cli

        sources = [(p.name, p.read_text()) for p in markdown_pages]
        sources.append(("repro.cli docstring", repro.cli.__doc__ or ""))
        invocations = [
            (name, args.split())
            for name, text in sources
            for args in _INVOCATION.findall(text)
        ]
        # Guard against the invocation regex rotting into matching nothing,
        # and against the checker accepting a flag nobody defines.
        assert len(invocations) >= 40
        assert undefined_flags(["lint", "--whole-program", "--no-such-flag"])
        assert undefined_flags(["trace", "--seed", "7", "chaos"])
        stale = [
            f"{name}: repro {' '.join(argv)}: {problem}"
            for name, argv in invocations
            for problem in undefined_flags(argv)
        ]
        assert not stale, "documented invocations drifted from the CLI:\n" + (
            "\n".join(stale)
        )


class TestLinks:
    def relative_links(self, page):
        for target in _LINK.findall(page.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            yield target.split("#", 1)[0]

    def test_relative_links_resolve(self, markdown_pages):
        broken = []
        for page in markdown_pages:
            for target in self.relative_links(page):
                if not (page.parent / target).exists():
                    broken.append(f"{page.name}: {target}")
        assert not broken, f"broken links: {broken}"

    def test_pages_actually_contain_relative_links(self, markdown_pages):
        # Guard against the link regex rotting into matching nothing.
        total = sum(len(list(self.relative_links(p))) for p in markdown_pages)
        assert total >= 10


class TestIndexCompleteness:
    def test_index_lists_every_docs_page(self, repo_root):
        index = (repo_root / "docs" / "index.md").read_text()
        pages = sorted((repo_root / "docs").glob("*.md"))
        missing = [
            p.name for p in pages if p.name != "index.md" and p.name not in index
        ]
        assert not missing, f"docs/index.md does not list: {missing}"

    def test_readme_links_every_docs_page(self, repo_root):
        readme = (repo_root / "README.md").read_text()
        pages = sorted((repo_root / "docs").glob("*.md"))
        missing = [p.name for p in pages if f"docs/{p.name}" not in readme]
        assert not missing, f"README.md docs map does not link: {missing}"


class TestPerformancePage:
    def test_exists_and_covers_the_contract(self, repo_root):
        page = (repo_root / "docs" / "performance.md").read_text()
        for required in (
            "REPRO_ENGINE",
            "scalar",
            "vector",
            "BENCH_engine.json",
            "fastpath_token",
            "repro-bench-engine/2",
            "tests/sim/test_engine_equivalence.py",
            # The batched escape tier (ISSUE 8): the three escape classes
            # and the service-shaped percentile output must stay documented.
            "escape class",
            "repro.sim.escape",
            "walk_into",
            "emit_walk_span",
            "p50",
            "p99",
            "batch_latency",
            "escape_bailout",
        ):
            assert required in page, f"performance.md lost: {required}"

    def test_cross_linked_from_observability(self, repo_root):
        text = (repo_root / "docs" / "observability.md").read_text()
        assert "performance.md" in text, "observability.md lacks the cross-link"


class TestStaticAnalysisPage:
    def test_covers_the_whole_program_layer(self, repo_root):
        page = (repo_root / "docs" / "static-analysis.md").read_text()
        for required in (
            "--whole-program",
            "--format sarif",
            "--no-baseline",
            "--write-baseline",
            "--rules",
            "# protocol:",
            "mutates[",
            "defers[",
            "settles[",
            "ProtocolSpec",
            "tests/lint/fixtures/",
            "TLBGEN001",
            "TLBGEN002",
            "SHOOT001",
            "PROV001",
            "SPAN001",
            "# dataflow:",
            "sink[determinism]",
            "sanitizes[nondet]",
            "--explain",
            "--stats",
        ):
            assert required in page, f"static-analysis.md lost: {required}"

    def test_every_registered_rule_is_in_the_catalogue(self, repo_root):
        from repro.lint.core import ALL_RULES, WHOLE_PROGRAM_RULES

        page = (repo_root / "docs" / "static-analysis.md").read_text()
        missing = [
            rule
            for rule in (*ALL_RULES, *WHOLE_PROGRAM_RULES)
            if rule not in page
        ]
        assert not missing, f"rules undocumented in the catalogue: {missing}"

    def test_cross_linked_from_performance(self, repo_root):
        text = (repo_root / "docs" / "performance.md").read_text()
        assert "static-analysis.md" in text, "performance.md lacks the cross-link"
        assert "TLBGEN001" in text, (
            "performance.md should name the rule that proves the "
            "generation-bump premise"
        )


class TestFleetPage:
    def test_exists_and_covers_the_contract(self, repo_root):
        page = (repo_root / "docs" / "fleet.md").read_text()
        for required in (
            "fleet campaign",
            "fleet sweep",
            "--seeds",
            "--intensities",
            "--workers",
            "--timeout",
            "--max-attempts",
            "--cache-dir",
            "--inject-crash",
            "--inject-hang",
            "--trace-dir",
            "--report",
            "--json",
            "repro-fleet-job/1",
            "repro-fleet-report/1",
            "fleet.worker.crash",
            "quarantined",
            "cached",
            "computed",
            "os.replace",
            "tests/fleet/",
        ):
            assert required in page, f"fleet.md lost: {required}"

    def test_cross_linked_from_robustness_and_index(self, repo_root):
        for name in ("robustness.md", "index.md"):
            text = (repo_root / "docs" / name).read_text()
            assert "fleet.md" in text, f"{name} lacks the fleet cross-link"

    def test_chaos_json_and_intensity_flags_documented(self, repo_root):
        text = (repo_root / "docs" / "robustness.md").read_text()
        assert "--intensity" in text
        assert "--json" in text
        assert "repro-chaos-verdict/1" in text


class TestObservabilityPage:
    def test_exists_and_covers_the_contract(self, repo_root):
        page = (repo_root / "docs" / "observability.md").read_text()
        for required in (
            "TraceSession",
            "InMemorySink",
            "JsonlSink",
            "ChromeTraceSink",
            "ui.perfetto.dev",
            "current_session",
            "examples/tracing_walkthrough.py",
        ):
            assert required in page, f"observability.md lost: {required}"

    def test_walkthrough_example_exists_and_mentions_the_docs(self, repo_root):
        script = repo_root / "examples" / "tracing_walkthrough.py"
        assert script.exists()
        assert "docs/observability.md" in script.read_text()

    def test_cross_linked_from_robustness_and_static_analysis(self, repo_root):
        for name in ("robustness.md", "static-analysis.md"):
            text = (repo_root / "docs" / name).read_text()
            assert "observability.md" in text, f"{name} lacks the cross-link"

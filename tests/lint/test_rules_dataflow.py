"""The dataflow rules fire on their seeded fixtures — and on the real
fleet code when a real discipline is broken.

Same contract as ``test_rules_protocol.py``: each fixture pairs the
seeded violation with a correct twin, so the rule must fire exactly once
and the conforming code next to it must stay clean. The regression half
mutates pristine copies of the fleet worker pool and result cache and
asserts the rules catch the exact disciplines those modules document.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _findings(path, rule):
    result = lint_paths([path], whole_program=True)
    return [f for f in result.findings if f.rule == rule]


class TestFixturesFire:
    def test_detflow001_pid_taints_the_job_key(self):
        found = _findings(FIXTURES / "detflow_tainted_job_key.py", "DETFLOW001")
        assert len(found) == 1  # keyed_submit_ok must stay clean
        assert "os.getpid()" in found[0].message
        assert "job_key" in found[0].message
        # The finding anchors at the *source*, where the fix goes.
        assert found[0].context == (
            "stamp = os.getpid()  # BUG: process identity re-keys the "
            "cell every run"
        )

    def test_detflow002_set_order_reaches_the_payload(self):
        found = _findings(
            FIXTURES / "detflow_set_iteration_metrics.py", "DETFLOW002"
        )
        assert len(found) == 1  # sample_ok must stay clean
        assert "record_sample" in found[0].message

    def test_res001_pipe_end_leaks_on_the_raise_edge(self):
        found = _findings(FIXTURES / "res_leaked_pipe.py", "RES001")
        assert len(found) == 1  # connect_ok must stay clean
        assert "send" in found[0].message
        assert "raise" in found[0].message

    def test_res002_tmp_file_neither_published_nor_removed(self):
        found = _findings(FIXTURES / "res_unreleased_tmp.py", "RES002")
        assert len(found) == 1  # publish_ok must stay clean
        assert "tmp" in found[0].message

    def test_suppression_covers_a_dataflow_finding(self, tmp_path):
        source = (FIXTURES / "detflow_tainted_job_key.py").read_text()
        target = "    stamp = os.getpid()"
        assert target in source
        suppressed = source.replace(
            target,
            "    # lint: allow[DETFLOW001] -- fixture: suppression round-trip\n"
            + target,
        )
        module = tmp_path / "suppressed.py"
        module.write_text(suppressed)
        result = lint_paths([module], whole_program=True)
        assert result.findings == []  # suppressed, and no LINT000 either


class TestRealCodeRegression:
    """Acceptance criteria: the pristine fleet modules are clean, and
    deleting the exact discipline each one documents is caught."""

    JOIN_AFTER_TERMINATE = (
        "        self.process.terminate()\n"
        "        self.process.join(timeout=self.grace)\n"
    )
    ATOMIC_PUBLISH = "        os.replace(tmp, path)\n"

    def test_pristine_pool_is_clean(self, tmp_path):
        copy = tmp_path / "pool.py"
        copy.write_text((SRC / "fleet" / "pool.py").read_text())
        result = lint_paths([copy], whole_program=True)
        assert result.findings == []

    def test_dejoined_terminate_is_caught(self, tmp_path):
        source = (SRC / "fleet" / "pool.py").read_text()
        assert source.count(self.JOIN_AFTER_TERMINATE) == 1  # _stop_process
        broken = source.replace(
            self.JOIN_AFTER_TERMINATE, "        self.process.terminate()\n"
        )
        copy = tmp_path / "pool.py"
        copy.write_text(broken)
        found = _findings(copy, "RES001")
        assert len(found) == 1
        assert "terminate" in found[0].message
        assert "join" in found[0].message
        terminate_line = broken.splitlines().index("        self.process.terminate()") + 1
        assert found[0].line == terminate_line

    def test_unstored_spawn_pipe_end_is_caught(self, tmp_path):
        """``PoolWorker._spawn`` hands the parent end of
        ``self._ctx.Pipe()`` to ``self.conn``; dropping that handoff
        leaks it, and RES001 (not PIPE001) is the rule that says so."""
        source = (SRC / "fleet" / "pool.py").read_text()
        handoff = "            self.conn = parent\n"
        assert source.count(handoff) == 1
        broken = source.replace(handoff, "            self.conn = None\n")
        copy = tmp_path / "pool.py"
        copy.write_text(broken)
        result = lint_paths([copy], whole_program=True)
        found = [f for f in result.findings if f.rule == "RES001"]
        assert len(found) == 1
        assert "`parent`" in found[0].message
        assert found[0].context == "parent, child = self._ctx.Pipe(duplex=True)"
        assert [f.rule for f in result.findings] == ["RES001"]

    def test_pristine_result_cache_is_clean(self, tmp_path):
        copy = tmp_path / "cache.py"
        copy.write_text((SRC / "fleet" / "cache.py").read_text())
        result = lint_paths([copy], whole_program=True)
        assert result.findings == []

    def test_unpublished_tmp_write_is_caught(self, tmp_path):
        source = (SRC / "fleet" / "cache.py").read_text()
        assert self.ATOMIC_PUBLISH in source
        broken = source.replace(self.ATOMIC_PUBLISH, "")
        copy = tmp_path / "cache.py"
        copy.write_text(broken)
        found = _findings(copy, "RES002")
        assert len(found) == 1
        assert "tmp" in found[0].message


class TestPipeEndsAreProvedByRes001:
    """RES001 is the one proof that a pipe end is closed: every pipe
    constructor spelling and every ``Connection``-annotated local is an
    acquire, and PIPE001 no longer reports them."""

    def _lint(self, tmp_path, source: str):
        module = tmp_path / "pipes.py"
        module.write_text(textwrap.dedent(source))
        return lint_paths([module], whole_program=True).findings

    def test_each_pipe_constructor_leaks_once_under_res001(self, tmp_path):
        found = self._lint(
            tmp_path,
            """
            import multiprocessing
            from multiprocessing import Pipe


            def bare() -> None:
                keep, leak = Pipe()
                keep.close()


            def dotted() -> None:
                keep, leak = multiprocessing.Pipe()
                keep.close()


            class Owner:
                def __init__(self) -> None:
                    self._ctx = multiprocessing.get_context()

                def via_context(self) -> None:
                    keep, leak = self._ctx.Pipe(duplex=True)
                    keep.close()
            """,
        )
        assert [(f.rule, f.line) for f in found] == [
            ("RES001", 7),
            ("RES001", 12),
            ("RES001", 21),
        ]
        assert all("pipe end `leak`" in f.message for f in found)

    def test_annotated_connection_local_and_its_twin(self, tmp_path):
        found = self._lint(
            tmp_path,
            """
            from multiprocessing.connection import Connection


            def make() -> Connection:
                raise NotImplementedError


            def leaky() -> None:
                conn: Connection = make()
                conn.send("hello")  # BUG: raises past the close
                conn.close()


            def closed() -> None:
                conn: Connection = make()
                try:
                    conn.send("hello")
                finally:
                    conn.close()
            """,
        )
        assert [(f.rule, f.line) for f in found] == [("RES001", 10)]
        assert "pipe end `conn`" in found[0].message
        assert "raise" in found[0].message


class TestAnnotatedRepoIsClean:
    """The shipped tree, with its sinks and sanitizers annotated, proves
    out: no dataflow findings anywhere in ``src/repro``."""

    def test_whole_tree_has_no_dataflow_findings(self):
        result = lint_paths([SRC], whole_program=True)
        dataflow = [
            f
            for f in result.findings
            if f.rule in ("DETFLOW001", "DETFLOW002", "RES001", "RES002")
        ]
        assert dataflow == []

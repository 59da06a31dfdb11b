"""The concurrency & process-lifecycle rules fire on their seeded
fixtures — and on the real fleet code when a real invariant is broken.

Same contract as ``test_rules_protocol``: every fixture pairs the seeded
violation with a correct twin of the same shape, so each test pins both
halves — the rule fires exactly where seeded, and the conforming code
next to it stays clean.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
POOL_SOURCE = SRC / "fleet" / "pool.py"
DISPATCHER_SOURCE = SRC / "fleet" / "dispatcher.py"


def _findings(path, rule):
    result = lint_paths([path], whole_program=True)
    return [f for f in result.findings if f.rule == rule]


class TestFixturesFire:
    def test_fork001_inherited_marked_object(self):
        found = _findings(FIXTURES / "fork_inherited_state.py", "FORK001")
        assert len(found) == 1  # launch_ok (path string only) stays clean
        assert found[0].line == 39
        assert "TraceJournal" in found[0].message
        assert "not-fork-inheritable" in found[0].message
        assert "construct it inside the child" in found[0].message

    def test_fork002_lock_held_across_spawn(self):
        found = _findings(FIXTURES / "fork_lock_across_spawn.py", "FORK002")
        assert len(found) == 2  # publish_ok (release before start) is clean
        assert sorted(f.line for f in found) == [25, 34]
        with_block, acquire_path = sorted(found, key=lambda f: f.line)
        assert "while holding `lock`" in with_block.message
        assert "no .release() on the path" in acquire_path.message
        assert all("inherits a locked mutex" in f.message for f in found)

    def test_sig001_unsafe_transitive_callee(self):
        found = _findings(FIXTURES / "sig_unsafe_handler.py", "SIG001")
        assert len(found) == 1  # handle_ok (flag + adjudicated wake) clean
        assert found[0].line == 20  # the print() inside log_interrupt
        assert "print()" in found[0].message
        assert "handle_broken" in found[0].message  # provenance: the handler
        assert "signal-safe" in found[0].message

    def test_pipe001_unclosed_and_unpaired(self):
        found = _findings(FIXTURES / "pipe_unclosed_worker.py", "PIPE001")
        assert len(found) == 2  # worker_ok's try/finally twin stays clean
        lifecycle, pairing = sorted(found, key=lambda f: f.line)
        assert "can reach function exit still open" in lifecycle.message
        assert "unprotected path" in lifecycle.message
        assert "sends[orphan]" in pairing.message
        assert "receives[orphan]" in pairing.message

    def test_pipe002_use_after_close_and_double_close(self):
        found = _findings(FIXTURES / "pipe_use_after_close.py", "PIPE002")
        assert len(found) == 2  # drain_ok stays clean
        after_close, double_close = sorted(found, key=lambda f: f.line)
        assert ".recv() after .close()" in after_close.message
        assert "second .close() (double close)" in double_close.message
        assert all("typestate" in f.message for f in found)


class TestRealCodeRegression:
    """Acceptance criterion: deleting the real ``conn.close()`` from a
    pool-shaped worker loop is caught by PIPE001."""

    def test_pristine_pool_module_is_clean(self, tmp_path):
        copy = tmp_path / "pool.py"
        copy.write_text(POOL_SOURCE.read_text())
        result = lint_paths([copy], whole_program=True)
        concurrency = [
            f
            for f in result.findings
            if f.rule in {"FORK001", "FORK002", "SIG001", "PIPE001", "PIPE002"}
        ]
        assert concurrency == []

    def test_removing_worker_conn_close_is_caught(self, tmp_path):
        source = POOL_SOURCE.read_text()
        target = "        conn.close()"
        assert target in source  # _pool_worker_main's finally block
        broken = source.replace(target, "        pass")
        copy = tmp_path / "pool.py"
        copy.write_text(broken)
        found = _findings(copy, "PIPE001")
        assert len(found) == 1
        assert "_pool_worker_main" in found[0].message
        assert "`conn`" in found[0].message
        assert "still open" in found[0].message

    def test_pristine_supervisor_module_is_clean(self, tmp_path):
        """The dispatcher supervises the pool's workers (leases,
        deadlines, ``connection.wait`` over pipes and sentinels)."""
        copy = tmp_path / "dispatcher.py"
        copy.write_text(DISPATCHER_SOURCE.read_text())
        result = lint_paths([copy], whole_program=True)
        concurrency = [
            f
            for f in result.findings
            if f.rule in {"FORK001", "FORK002", "SIG001", "PIPE001", "PIPE002"}
        ]
        assert concurrency == []

    def test_removing_worker_entry_close_is_caught(self, tmp_path):
        """An early ``return`` out of the worker entry skips its close on
        the shutdown path only; PIPE001 is path-sensitive enough to see it."""
        source = POOL_SOURCE.read_text()
        target = "            break  # shutdown (or anything unrecognized)"
        assert source.count(target) == 1  # _pool_worker_main's shutdown exit
        broken = source.replace(target, "            return  # shutdown")
        copy = tmp_path / "pool.py"
        copy.write_text(broken)
        found = _findings(copy, "PIPE001")
        assert len(found) == 1
        assert "_pool_worker_main" in found[0].message
        assert "`conn`" in found[0].message


class TestAdjudication:
    def test_suppression_covers_concurrency_finding(self, tmp_path):
        source = (FIXTURES / "pipe_use_after_close.py").read_text()
        target = "    out.append(conn.recv())  # BUG: typestate is closed here"
        assert target in source
        suppressed = source.replace(
            target,
            "    # lint: allow[PIPE002] -- fixture: suppression round-trip\n"
            + target,
        )
        module = tmp_path / "suppressed.py"
        module.write_text(suppressed)
        found = _findings(module, "PIPE002")
        assert len(found) == 1  # only the double close remains

    def test_signal_safe_flag_adjudicates_callee(self, tmp_path):
        """Removing the ``# concurrency: signal-safe`` flag from the
        adjudicated ``wake`` helper turns the *clean* handler red: the
        flag is load-bearing, not decoration."""
        source = (FIXTURES / "sig_unsafe_handler.py").read_text()
        flag = "# concurrency: signal-safe"
        assert flag in source
        module = tmp_path / "unadjudicated.py"
        module.write_text(source.replace(flag, "# commentary: was signal-safe"))
        found = _findings(module, "SIG001")
        # The seeded print() finding plus os.write inside the no-longer
        # adjudicated wake() called from handle_ok.
        assert len(found) >= 2
        assert any("handle_ok" in f.message for f in found)

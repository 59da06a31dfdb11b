"""The interprocedural dataflow engine: taint propagation, summaries
and resource lifecycles (:mod:`repro.lint.dataflow`)."""

from __future__ import annotations

import textwrap

from repro.lint.callgraph import build_index
from repro.lint.core import parse_source
from repro.lint.dataflow import ProjectDataflow, _scc_order

SINK = (
    "# dataflow: sink[determinism] -- replayed payload: same seed, same bytes\n"
    "def record(payload):\n"
    "    return payload\n"
)


def _index(*sources: str):
    modules = [
        parse_source(
            textwrap.dedent(src), path=f"src/mod{i}.py", module=f"mod{i}"
        )
        for i, src in enumerate(sources)
    ]
    return build_index(modules)


def _analyze(*sources: str) -> ProjectDataflow:
    return ProjectDataflow(_index(*sources))


def _with_sink(body: str) -> str:
    return SINK + textwrap.dedent(body)


def _rules_fired(analysis: ProjectDataflow) -> set[str]:
    return {rule for rule, found in analysis.findings.items() if found}


class TestDeterminismTaint:
    def test_direct_flow_into_sink_is_flagged_at_the_source(self):
        analysis = _analyze(
            _with_sink(
                """
                import time

                def emit():
                    stamp = time.time()
                    return record({"stamp": stamp})
                """
            )
        )
        (finding,) = analysis.findings["DETFLOW001"]
        assert "time.time()" in finding.message
        assert finding.context == "stamp = time.time()"

    def test_taint_crosses_function_returns(self):
        analysis = _analyze(
            _with_sink(
                """
                import time

                def moment():
                    return time.time()

                def emit():
                    return record({"stamp": moment()})
                """
            )
        )
        assert len(analysis.findings["DETFLOW001"]) == 1

    def test_sink_reached_through_a_forwarding_helper(self):
        """Transitive sink params: a helper that forwards its argument to
        a marked sink is itself a sink for that argument."""
        analysis = _analyze(
            _with_sink(
                """
                import os

                def forward(value):
                    return record({"value": value})

                def emit():
                    return forward(os.getpid())

                def emit_ok():
                    return forward(42)
                """
            )
        )
        (finding,) = analysis.findings["DETFLOW001"]
        assert "os.getpid()" in finding.message

    def test_sanitizer_wrapper_kills_the_taint(self):
        analysis = _analyze(
            _with_sink(
                """
                import time

                # dataflow: sanitizes[nondet] -- virtual time, pure function of ticks
                def virtual_now():
                    return time.time()

                def emit():
                    return record({"stamp": virtual_now()})
                """
            )
        )
        assert analysis.findings["DETFLOW001"] == []

    def test_source_marker_injects_taint_into_an_opaque_wrapper(self):
        analysis = _analyze(
            _with_sink(
                """
                # dataflow: source[nondet] -- reads the host's wall clock
                def host_clock():
                    return 0.0

                def emit():
                    return record({"stamp": host_clock()})
                """
            )
        )
        (finding,) = analysis.findings["DETFLOW001"]
        assert finding.rule == "DETFLOW001"

    def test_tainted_attribute_read_by_a_marked_to_dict(self):
        analysis = _analyze(
            """
            import time

            class Report:
                def __init__(self):
                    self.stamp = time.time()

                # dataflow: sink[determinism] -- cached payload, same bytes
                def to_dict(self):
                    return {"stamp": self.stamp}
            """
        )
        (finding,) = analysis.findings["DETFLOW001"]
        assert finding.context == "self.stamp = time.time()"

    def test_sorted_kills_order_taint(self):
        analysis = _analyze(
            _with_sink(
                """
                def emit(names):
                    return record({"names": sorted(set(names))})
                """
            )
        )
        assert analysis.findings["DETFLOW002"] == []

    def test_set_fold_reaching_sink_is_order_tainted(self):
        analysis = _analyze(
            _with_sink(
                """
                def emit(names):
                    acc = []
                    for name in set(names):
                        acc.append(name)
                    return record({"names": acc})
                """
            )
        )
        (finding,) = analysis.findings["DETFLOW002"]
        assert finding.rule == "DETFLOW002"

    def test_taint_without_a_sink_is_not_a_finding(self):
        analysis = _analyze(
            """
            import time

            def local_only():
                return time.time()
            """
        )
        assert _rules_fired(analysis) == set()

    def test_mutual_recursion_converges(self):
        """The SCC fixpoint terminates and still sees the flow through a
        recursive cycle."""
        analysis = _analyze(
            _with_sink(
                """
                import time

                def ping(depth):
                    if depth <= 0:
                        return time.time()
                    return pong(depth - 1)

                def pong(depth):
                    return ping(depth)

                def emit():
                    return record({"stamp": ping(3)})
                """
            )
        )
        assert len(analysis.findings["DETFLOW001"]) == 1


class TestResourceLifecycles:
    def test_unclosed_file_handle_is_flagged(self):
        analysis = _analyze(
            """
            def read_broken(path):
                handle = open(path)
                data = handle.read()
                return data
            """
        )
        assert len(analysis.findings["RES001"]) == 1

    def test_with_block_and_close_are_both_clean(self):
        analysis = _analyze(
            """
            def read_with(path):
                with open(path) as handle:
                    return handle.read()

            def read_close(path):
                handle = open(path)
                try:
                    return handle.read()
                finally:
                    handle.close()
            """
        )
        assert analysis.findings["RES001"] == []

    def test_handle_returned_to_the_caller_transfers_ownership(self):
        analysis = _analyze(
            """
            def acquire(path):
                handle = open(path)
                return handle
            """
        )
        assert analysis.findings["RES001"] == []

    def test_release_through_a_resolved_callee_counts(self):
        analysis = _analyze(
            """
            def shutdown(handle):
                handle.close()

            def use(path):
                handle = open(path)
                try:
                    data = handle.read()
                finally:
                    shutdown(handle)
                return data
            """
        )
        assert analysis.findings["RES001"] == []

    def test_terminate_without_join_is_flagged(self):
        analysis = _analyze(
            """
            import multiprocessing as mp

            class Worker:
                def __init__(self, target):
                    self.proc = mp.Process(target=target)

                def stop_broken(self):
                    self.proc.terminate()

                def stop_ok(self):
                    self.proc.terminate()
                    self.proc.join()
            """
        )
        (finding,) = analysis.findings["RES001"]
        assert "join" in finding.message
        assert "terminate" in finding.message


class TestSccOrder:
    def test_callees_come_before_callers(self):
        order = _scc_order({"a": ["b"], "b": ["c"], "c": []})
        flat = [q for group in order for q in group]
        assert flat.index("c") < flat.index("b") < flat.index("a")

    def test_mutual_recursion_is_grouped(self):
        order = _scc_order({"a": ["b"], "b": ["a"], "main": ["a"]})
        groups = [set(g) for g in order]
        assert {"a", "b"} in groups
        assert groups.index({"a", "b"}) < groups.index({"main"})

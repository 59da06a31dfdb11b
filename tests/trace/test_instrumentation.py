"""Tracing threaded through the simulator's hot paths.

The acceptance surface of the tracing layer: an engine run under a
session emits walker spans with per-level socket attribution; a chaos
scenario exports a loadable Chrome trace with fault instants and the
degrade/recover arc; Mitosis's entry points open and close their spans
where the work starts and ends, raising paths included; everything
stays silent when tracing is off.
"""

import json
from contextlib import nullcontext

from repro.inject.plan import FaultPlan, SITE_ALLOCATOR_OOM
from repro.kernel.kernel import Kernel
from repro.kernel.policy import FixedNodePolicy
from repro.kernel.pvops import NativePagingOps
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine, Socket
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.mitosis.background import start_background_replication
from repro.mitosis.migration import migrate_page_tables
from repro.mitosis.replication import (
    collapse_replicas,
    enable_replication,
    shrink_replication,
)
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_USER, PTE_WRITABLE
from repro.sim.chaos import run_chaos
from repro.sim.scenario import run_multisocket
from repro.trace import ChromeTraceSink, InMemorySink, current_session, tracing
from repro.units import MIB, PAGE_SIZE

SMALL = dict(footprint=8 * 1024 * 1024, n_sockets=2)


def small_run(sink):
    with tracing(sinks=[sink]) as session:
        result = run_multisocket("gups", "F+M", **SMALL)
    return session, result


class TestWalkerSpans:
    def test_walk_spans_carry_per_level_socket_attribution(self):
        sink = InMemorySink()
        small_run(sink)
        walks = sink.spans("walk", category="walker")
        assert walks, "engine emitted no walker spans"
        for span in walks[:50]:
            levels = span.args["levels"]
            assert levels, "walk span without per-level attribution"
            # Levels descend toward the leaf; every access names its socket.
            assert [a["level"] for a in levels] == sorted(
                (a["level"] for a in levels), reverse=True
            )
            for access in levels:
                assert access["node"] in (0, 1)
                assert isinstance(access["llc_hit"], bool)
                assert access["cycles"] > 0
                assert access["remote"] == (access["node"] != span.args["socket"])
            assert span.args["socket"] in (0, 1)
            assert span.dur > 0

    def test_walk_spans_land_on_thread_tracks(self):
        sink = InMemorySink()
        session, _ = small_run(sink)
        tracks = {span.track for span in sink.spans("walk")}
        assert tracks <= set(session.track_names)
        assert all("socket" in session.track_names[t] for t in tracks)

    def test_replicated_run_emits_mitosis_events(self):
        sink = InMemorySink()
        small_run(sink)
        assert sink.named("replicate-table") or sink.spans("mitosis.enable")

    def test_counters_flow_into_the_session_registry(self):
        sink = InMemorySink()
        session, result = small_run(sink)
        metrics = session.metrics
        assert metrics.get("tlb.walks") > 0
        assert metrics.get("pvops.entry_writes") > 0
        # RunMetrics integration: the perf-counter view lands under perf.
        assert metrics.get("perf.dtlb_misses.miss_causes_a_walk") == metrics.get(
            "tlb.walks"
        )
        assert "walker.walk_cycles" in metrics.histograms

    def test_run_metrics_instant_published(self):
        sink = InMemorySink()
        session, result = small_run(sink)
        (published,) = sink.named("run-metrics")
        assert published.args["runtime_cycles"] > 0


class TestChaosTracing:
    def test_chrome_export_of_a_chaos_scenario_is_loadable(self, tmp_path):
        path = tmp_path / "chaos.json"
        sink = ChromeTraceSink(path)
        with tracing(sinks=[sink]) as session:
            sink.open_session(session)
            report = run_chaos("replication-oom", seed=7)
        assert report.ok
        document = json.loads(path.read_text())
        names = [e["name"] for e in document["traceEvents"]]
        assert "chaos.replication-oom" in names
        assert "fault" in names
        root = next(
            e for e in document["traceEvents"] if e["name"] == "chaos.replication-oom"
        )
        assert root["ph"] == "X"
        assert root["args"]["ok"] is True

    def test_fault_instants_carry_site_seq_and_seed(self):
        sink = InMemorySink()
        with tracing(sinks=[sink]):
            run_chaos("replication-oom", seed=7)
        faults = sink.named("fault")
        assert faults
        assert [f.args["seq"] for f in faults] == list(
            range(1, len(faults) + 1)
        )
        for fault in faults:
            assert fault.args["seed"] == 7
            assert fault.args["site"] == "mem.pagecache.refill"

    def test_degrade_recover_arc_on_the_timeline(self):
        sink = InMemorySink()
        with tracing(sinks=[sink]) as session:
            run_chaos("replication-oom", seed=7)
        assert sink.named("degraded")
        assert sink.named("recovered")
        assert sink.named("daemon-decision")
        assert session.metrics.get("chaos.recoveries") == 1
        assert session.metrics.get("inject.mem.pagecache.refill") == float(
            session.metrics.get("chaos.faults_injected")
        )

    def test_daemon_backoff_span_extends_over_epochs(self):
        sink = InMemorySink()
        with tracing(sinks=[sink]):
            run_chaos("replication-oom", seed=7)
        backoffs = sink.spans("daemon.backoff", category="daemon")
        assert backoffs
        for span in backoffs:
            assert span.dur == span.args["until_epoch"] - span.args["epoch"]


def _tree(socket1_bytes=32 * MIB):
    """32 pages mapped by four tables on socket 0 of a two-socket machine
    whose socket 1 holds ``socket1_bytes``."""
    machine = Machine(sockets=(Socket(0, 1, 32 * MIB), Socket(1, 1, socket1_bytes)))
    physmem = PhysicalMemory(machine)
    cache = PageTablePageCache(physmem)
    tree = PageTableTree(NativePagingOps(cache, pt_policy=FixedNodePolicy(0)))
    for i in range(32):
        tree.map_page(i * PAGE_SIZE, physmem.alloc_frame(0).pfn, PTE_WRITABLE | PTE_USER)
    return tree, cache


def _tree_state(tree):
    return (
        type(tree.ops).__name__,
        tree.ops.stats,
        tree.root.pfn,
        sorted(
            (pfn, page.level, page.node, page.frame.replica_next, tuple(page.entries))
            for pfn, page in tree.registry.items()
        ),
    )


def _untraced_then_traced(build):
    """Run ``build()``'s call on two fresh, identical set-ups, untraced then
    traced. Both must return (or raise) the same and leave the same tree;
    returns the traced outcome and its ``(name, ts, dur, args)`` spans."""
    seen = []
    for traced in (False, True):
        tree, call = build()
        sink = InMemorySink()
        with tracing(sinks=[sink]) if traced else nullcontext():
            try:
                result = call()
                outcome = getattr(result, "stats", result)
            except Exception as exc:  # the raising paths are under test
                outcome = repr(exc)
        seen.append((outcome, _tree_state(tree)))
    assert seen[0] == seen[1]
    assert all(e.kind == "span" for e in sink.events)
    return seen[1][0], [(e.name, e.ts, e.dur, e.args) for e in sink.events]


OOM_ON_1 = "OutOfMemoryError('out of memory on node 1 (requested 4096 bytes)')"


class TestSpanBoundaries:
    """Each span opens before the entry point's first check and closes on
    every exit, a raise included; results land only on normal exits."""

    def test_empty_mask_raises_inside_the_enable_span(self):
        def build():
            tree, cache = _tree()
            return tree, lambda: enable_replication(tree, cache, frozenset())

        outcome, spans = _untraced_then_traced(build)
        assert outcome.startswith("ReplicationError('empty mask")
        assert spans == [("mitosis.enable", 1.0, 1.0, {"mask": [], "depth": 0})]

    def test_shrinking_a_native_tree_records_nothing_freed(self):
        def build():
            tree, cache = _tree()
            return tree, lambda: shrink_replication(tree, cache, frozenset({1}))

        outcome, spans = _untraced_then_traced(build)
        assert outcome == 0
        assert spans == [
            ("mitosis.shrink", 1.0, 1.0, {"drop": [1], "depth": 0, "freed": 0})
        ]

    def test_strict_step_closes_its_span_on_oom(self):
        def build():
            tree, cache = _tree(socket1_bytes=2 * PAGE_SIZE)
            job = start_background_replication(tree, cache, frozenset({0, 1}))
            return tree, job.step

        outcome, spans = _untraced_then_traced(build)
        assert outcome == OOM_ON_1
        assert spans == [("replication.step", 1.0, 1.0, {"remaining": 4, "depth": 0})]

    def test_step_reports_what_it_copied(self):
        def build():
            tree, cache = _tree()
            job = start_background_replication(tree, cache, frozenset({0, 1}))
            return tree, lambda: job.step(max_tables=2)

        outcome, spans = _untraced_then_traced(build)
        assert outcome == 666.0
        assert spans == [
            (
                "replication.step", 1.0, 1.0,
                {"remaining": 2, "depth": 0, "copied": 2, "cycles": 666.0},
            )
        ]

    def test_collapse_gap_fill_oom_closes_both_spans(self):
        def build():
            tree, cache = _tree(socket1_bytes=2 * PAGE_SIZE)
            return tree, lambda: collapse_replicas(tree, cache, 1)

        outcome, spans = _untraced_then_traced(build)
        assert outcome == OOM_ON_1
        assert spans == [
            (
                "mitosis.enable", 2.0, 1.0,
                {"mask": [1], "depth": 1, "parent": "mitosis.collapse"},
            ),
            ("mitosis.collapse", 1.0, 3.0, {"keep_socket": 1, "depth": 0}),
        ]

    def test_migration_nests_enable_and_collapse(self):
        def build():
            machine = Machine.homogeneous(2, cores_per_socket=2, memory_per_socket=32 * MIB)
            kernel = Kernel(machine, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS))
            process = kernel.create_process("p", socket=0)
            kernel.sys_mmap(process, 8 * PAGE_SIZE, populate=True)
            return process.mm.tree, lambda: migrate_page_tables(kernel, process, 1)

        outcome, spans = _untraced_then_traced(build)
        assert (outcome.tables_copied, outcome.cycles) == (4, 4732.0)
        enable = {"mask": [1], "tables_allocated": 8}
        assert spans == [
            ("mitosis.enable", 2.0, 1.0, {**enable, "depth": 1, "parent": "migrate-pt"}),
            (
                "mitosis.enable", 5.0, 1.0,
                {**enable, "depth": 2, "parent": "mitosis.collapse"},
            ),
            (
                "mitosis.collapse", 4.0, 3.0,
                {"keep_socket": 1, "depth": 1, "parent": "migrate-pt"},
            ),
            (
                "migrate-pt", 1.0, 7.0,
                {
                    "target_socket": 1, "free_origin": True, "depth": 0,
                    "tables_copied": 4, "cycles": 4732.0,
                },
            ),
        ]


class TestDisabledTracing:
    def test_no_session_outside_tracing_context(self):
        assert current_session() is None

    def test_fault_plan_fires_without_a_session(self):
        plan = FaultPlan(seed=3)
        plan.oom_on_node(0)
        assert plan.fire(SITE_ALLOCATOR_OOM, node=0) is not None
        assert plan.stats.total == 1

    def test_chaos_identical_with_and_without_tracing(self):
        baseline = run_chaos("replication-oom", seed=13)
        with tracing():
            traced = run_chaos("replication-oom", seed=13)
        assert traced.render() == baseline.render()

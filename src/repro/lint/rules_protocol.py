"""Whole-program protocol rules: TLBGEN, SHOOT, SPAN.

Each rule here is a ~20-line declarative spec over the same engine: the
project call graph (:mod:`repro.lint.callgraph`) says *where obligations
arise* — at the entry of a ``# protocol: mutates[k]`` function, or at
every call site of a ``defers[k]``/``begins[k]`` function — and the CFG
reachability engine (:mod:`repro.lint.flow`) asks whether some path
escapes to a terminal without passing a *sink* (a primitive settle like
a ``generation`` store, a call to a ``settles[k]``/``ends[k]`` function,
or a call to a function *proven* to settle on every path — a least
fixpoint (:meth:`~repro.lint.callgraph.ProjectIndex.least_fixpoint`), so
e.g. ``TlbHierarchy.invalidate_page`` counts as a ``tlb-generation`` sink
for its callers because its own body always bumps).

The shipped invariants:

* ``TLBGEN001`` — *tlb-generation*: evicting cached translations must
  bump ``TlbHierarchy.generation``, or the vector engine's
  generation-stamped fastpath tokens keep validating stale lookups.
* ``TLBGEN002`` — *translation-visibility*: mapping mutations that leave
  stale TLB entries (munmap/mprotect/replica teardown/migration) must
  reach a shootdown (``flush_all``/``flush_page``) on every normal path.
* ``SHOOT001`` — *shootdown-round*: every IPI round opened by
  ``_begin_round`` reaches ``_complete_round`` (cycle accounting), with
  no early return between them.
* ``SPAN001`` — *trace-session*: ``start_tracing`` reaches
  ``stop_tracing`` on **all** paths including exceptional ones, and
  ``TraceSession.span(...)``/``tracing(...)`` context managers are
  actually entered with ``with``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.callgraph import CallSite, FunctionInfo, ProjectIndex
from repro.lint.core import (
    Finding,
    WholeProgramRule,
    register_whole_program_rule,
)
from repro.lint.flow import Cfg, find_unprotected_path, iter_statements


@dataclass(frozen=True)
class ProtocolSpec:
    """One must-reach protocol: obligations from markers, sinks by key."""

    key: str  # marker key, e.g. "tlb-generation"
    settle_hint: str  # human phrase for the expected sink
    store_sink_attr: str | None = None  # attr whose store is a primitive sink
    count_exception_paths: bool = False  # flag paths escaping via raise too


class ObligationRule(WholeProgramRule):
    """Engine shared by every marker-driven protocol rule."""

    spec: ProtocolSpec

    def run(self, index: ProjectIndex) -> list[Finding]:
        must_settle = self._must_settle(index)
        findings: list[Finding] = []
        for fn in index.functions.values():
            if self.spec.key in fn.marker_keys("defers", "begins"):
                continue  # the obligation is its callers' duty, not its own
            cfg = index.cfg(fn)
            sinks = self._sinks(fn, cfg, must_settle)
            if self.spec.key in fn.marker_keys("mutates"):
                path = find_unprotected_path(
                    cfg,
                    cfg.entry,
                    sinks,
                    inclusive=True,
                    count_exception_paths=self.spec.count_exception_paths,
                )
                if path is not None:
                    findings.append(
                        index.finding(
                            self.name,
                            fn,
                            fn.node,
                            f"mutates[{self.spec.key}] but can finish without "
                            f"settling it — expected {self.spec.settle_hint} "
                            f"on every path ({self._path_text(cfg, path)})",
                        )
                    )
                continue  # the entry obligation subsumes call-site ones
            for site in fn.calls:
                if not self._creates_obligation(index, site):
                    continue
                violation = None
                for node in cfg.nodes_for(site.stmt):
                    violation = find_unprotected_path(
                        cfg,
                        node,
                        sinks,
                        count_exception_paths=self.spec.count_exception_paths,
                    )
                    if violation is not None:
                        break
                if violation is not None:
                    findings.append(
                        index.finding(
                            self.name,
                            fn,
                            site.stmt,
                            f"call to {site.callee_repr}() defers "
                            f"[{self.spec.key}] to this caller, but a path "
                            f"skips {self.spec.settle_hint} "
                            f"({self._path_text(cfg, violation)})",
                        )
                    )
        return findings

    # -- obligation / sink classification ------------------------------------

    def _creates_obligation(self, index: ProjectIndex, site: CallSite) -> bool:
        return any(
            self.spec.key
            in index.functions[q].marker_keys("defers", "begins")
            for q in site.resolutions
        )

    def _sinks(
        self, fn: FunctionInfo, cfg: Cfg, must_settle: set[str]
    ) -> set[int]:
        sinks: set[int] = set()
        if self.spec.store_sink_attr is not None:
            for stmt in iter_statements(fn.node):
                if self._stores_attr(stmt, self.spec.store_sink_attr):
                    sinks.update(cfg.nodes_for(stmt))
        for site in fn.calls:
            if site.resolutions and all(
                q in must_settle for q in site.resolutions
            ):
                sinks.update(cfg.nodes_for(site.stmt))
        return sinks

    @staticmethod
    def _stores_attr(stmt: ast.stmt, attr: str) -> bool:
        targets: list[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        return any(
            isinstance(t, ast.Attribute) and t.attr == attr for t in targets
        )

    def _must_settle(self, index: ProjectIndex) -> set[str]:
        """Least fixpoint of "calling this function settles the key":
        seeded by ``settles``/``ends`` markers, grown by functions whose
        every entry→exit path hits a sink under the current set."""
        key = self.spec.key

        def settles(fn: FunctionInfo, settled: set[str]) -> bool:
            if key in fn.marker_keys("defers", "begins"):
                return False  # defers = explicitly does NOT settle
            cfg = index.cfg(fn)
            sinks = self._sinks(fn, cfg, settled)
            return bool(sinks) and find_unprotected_path(
                cfg,
                cfg.entry,
                sinks,
                inclusive=True,
                count_exception_paths=self.spec.count_exception_paths,
            ) is None

        return index.least_fixpoint(
            (
                fn.qualname
                for fn in index.functions.values()
                if key in fn.marker_keys("settles", "ends")
            ),
            settles,
        )

    # -- plumbing ------------------------------------------------------------

    @staticmethod
    def _path_text(cfg: Cfg, path: list[int]) -> str:
        return "unprotected path: " + cfg.describe_path(path)


@register_whole_program_rule
class TlbGenerationRule(ObligationRule):
    """TLBGEN001: translation-cache eviction must bump the generation."""

    name = "TLBGEN001"
    description = (
        "TLB residency mutation must reach a TlbHierarchy.generation bump "
        "on every non-exception path (the vector engine's fastpath tokens "
        "validate against it)"
    )
    spec = ProtocolSpec(
        key="tlb-generation",
        settle_hint="a `generation` bump (or a call that provably bumps it)",
        store_sink_attr="generation",
    )


@register_whole_program_rule
class TranslationVisibilityRule(ObligationRule):
    """TLBGEN002: stale-translation producers must reach a shootdown."""

    name = "TLBGEN002"
    description = (
        "a mapping mutation that leaves stale TLB entries (munmap, "
        "mprotect, replica teardown, migration) must reach a TLB "
        "shootdown on every non-exception path"
    )
    spec = ProtocolSpec(
        key="translation-visibility",
        settle_hint="a shootdown (TlbShootdown.flush_all/flush_page)",
    )


@register_whole_program_rule
class ShootdownPairingRule(ObligationRule):
    """SHOOT001: every IPI round issued is completed (acked + charged)."""

    name = "SHOOT001"
    description = (
        "a shootdown round opened by _begin_round must reach "
        "_complete_round on every non-exception path; an early return "
        "leaves the round uncharged and unacked"
    )
    spec = ProtocolSpec(
        key="shootdown-round",
        settle_hint="_complete_round (ack + cycle accounting)",
    )


@register_whole_program_rule
class SpanPairingRule(ObligationRule):
    """SPAN001: trace sessions/spans are closed on every path."""

    name = "SPAN001"
    description = (
        "start_tracing must reach stop_tracing on all paths (including "
        "exceptional ones), and span()/trace_span()/tracing() context "
        "managers must be entered with `with`"
    )
    spec = ProtocolSpec(
        key="trace-session",
        settle_hint="stop_tracing",
        count_exception_paths=True,
    )

    #: (class, method-or-function name) pairs whose return value is a
    #: context manager that MUST be entered (or delegated) to close.
    _CM_FACTORIES = (("TraceSession", "span"), (None, "trace_span"), (None, "tracing"))

    def run(self, index: ProjectIndex) -> list[Finding]:
        findings = super().run(index)
        factory_qualnames = {
            fn.qualname
            for fn in index.functions.values()
            if (fn.cls, fn.name) in self._CM_FACTORIES
        }
        for fn in index.functions.values():
            if fn.qualname in factory_qualnames:
                continue
            for site in fn.calls:
                if not set(site.resolutions) & factory_qualnames:
                    continue
                if self._properly_entered(fn, site):
                    continue
                findings.append(
                    index.finding(
                        self.name,
                        fn,
                        site.stmt,
                        f"{site.callee_repr}() returns a span/tracing "
                        f"context manager that is never entered — use "
                        f"`with {site.callee_repr}(...)` (or bind it and "
                        f"`with` the name) so the span closes on every path",
                    )
                )
        return findings

    @staticmethod
    def _properly_entered(fn: FunctionInfo, site: CallSite) -> bool:
        stmt = site.stmt
        # Directly a with-item: `with session.span(...):` — including
        # wrapped forms like `tracing(s) if traced else nullcontext()`.
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if any(sub is site.call for sub in ast.walk(item.context_expr)):
                    return True
        # Delegated to the caller or an ExitStack.
        if isinstance(stmt, ast.Return):
            return True
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "enter_context"
                and any(site.call is s for a in sub.args for s in ast.walk(a))
            ):
                return True
        # Bound to a name that is later used as a with-item.
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            bound = stmt.targets[0].id
            for other in iter_statements(fn.node):
                if isinstance(other, (ast.With, ast.AsyncWith)):
                    for item in other.items:
                        for sub in ast.walk(item.context_expr):
                            if isinstance(sub, ast.Name) and sub.id == bound:
                                return True
        return False

"""``repro.lint`` — static analysis + runtime sanitizer for simulator invariants.

Mitosis's correctness rests on one contract: *every* page-table store flows
through the PV-Ops indirection (paper §5.2, Listing 1) so all physical
replicas stay coherent. PR 1 added a second contract: same seed, same
faults. Neither was defended by tooling — only by docstring convention.
This package is that tooling, in two halves:

* **static**: an AST-based analyzer (:mod:`repro.lint.core`) with named
  per-file rules — ``PVOPS001``/``PVOPS002`` (PV-Ops bypasses, including
  stores through local aliases of ``.entries``), ``DET001``–``DET003``
  (reproducibility hazards) and ``FAULT001`` (unregistered
  fault-injection sites) — plus whole-program protocol rules
  (``TLBGEN001``/``TLBGEN002``, ``SHOOT001``, ``SPAN001``) that combine a
  project call graph and its one least-fixpoint helper
  (:mod:`repro.lint.callgraph`) with the one CFG path search
  (:mod:`repro.lint.flow`), interprocedural dataflow rules
  (``DETFLOW001``/``DETFLOW002`` determinism taint, ``RES001``/``RES002``
  resource lifecycles, ``RES001`` the one proof that pipe ends close)
  solved in memory by :mod:`repro.lint.dataflow`, and concurrency /
  process-lifecycle rules (``FORK001``/``FORK002`` fork-safety,
  ``SIG001`` signal-handler safety, ``PIPE001`` Process-target parameters
  and message pairing, ``PIPE002`` pipe typestate —
  :mod:`repro.lint.concurrency`); run via
  ``python -m repro.cli lint`` (``--whole-program`` for the cross-module
  pass) and gated in CI against a committed baseline
  (:mod:`repro.lint.baseline`);
* **dynamic**: :class:`repro.lint.sanitizer.PTESanitizer`, a debug-mode
  guard around :class:`~repro.paging.pagetable.PageTablePage` entries
  that records writer provenance and raises on any store that does not
  originate inside ``apply_entry_write`` or ``apply_entry_run`` (or a
  hardware walker).

See ``docs/static-analysis.md`` for the rule catalogue and the
suppression policy (``# lint: allow[<RULE>] -- justification``).
"""

from repro.lint.baseline import (
    filter_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.core import (
    ALL_RULES,
    WHOLE_PROGRAM_RULES,
    Finding,
    LintResult,
    ParsedModule,
    Rule,
    WholeProgramRule,
    clear_parse_cache,
    iter_python_files,
    lint_paths,
    lint_source,
    parse_file,
    parse_source,
    rule_names,
    whole_program_rule_names,
)
from repro.lint.dataflow import ProjectDataflow, get_dataflow
from repro.lint.report import render_json, render_sarif, render_text

__all__ = [
    "ALL_RULES",
    "WHOLE_PROGRAM_RULES",
    "Finding",
    "LintResult",
    "ParsedModule",
    "ProjectDataflow",
    "Rule",
    "WholeProgramRule",
    "clear_parse_cache",
    "filter_baseline",
    "get_dataflow",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "parse_file",
    "parse_source",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_names",
    "whole_program_rule_names",
    "write_baseline",
]

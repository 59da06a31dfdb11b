"""``lint --changed [REF]`` — restrict linting to what an edit can affect.

Whole-program analysis over the full tree is the sound default, but the
edit-compile-lint loop wants an answer scoped to *this* change. This
module computes that scope in two steps:

1. **Touched files** — ``git diff --name-only REF`` (``HEAD`` by
   default) plus staged and untracked files, filtered to ``.py`` files
   that still exist under the linted roots.
2. **Reverse call-graph dependents** — a project index is built over
   the *full* file set (resolution needs every definition), then every
   function defined in a touched file seeds the caller closure
   (:meth:`~repro.lint.callgraph.ProjectIndex.least_fixpoint`, which
   walks the reverse call edges); any file containing a transitive
   caller joins the scope. A caller can only be
   broken by its callees, so findings *about* unchanged files cannot be
   introduced outside this closure — with the caveat below.

**Soundness caveat.** The dependent closure follows *resolved call
edges* only. Whole-program rules that pair markers across the project
without a call edge — ``sends[k]``/``receives[k]`` pipe pairing,
``begins[k]``/``ends[k]`` protocol pairing — can produce or retire
findings in files outside the closure (deleting the last ``receives[k]``
breaks a ``sends[k]`` peer the call graph never connects to). The
``--changed`` scope is therefore a fast development filter, not a gate:
CI always lints the whole tree. Findings are additionally *reported*
only for the scoped files, so pre-existing findings elsewhere don't
drown the diff.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

from repro.lint.callgraph import ProjectIndex

__all__ = ["changed_files", "dependent_closure", "changed_scope"]


def _git(root: Path, *argv: str) -> list[str]:
    """Lines of one git command's stdout; [] on any git failure."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), *argv],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return []
    return [line.strip() for line in proc.stdout.splitlines() if line.strip()]


def repo_root(start: Path | None = None) -> Path | None:
    """The enclosing git work-tree root, or ``None`` outside one."""
    lines = _git(start or Path.cwd(), "rev-parse", "--show-toplevel")
    return Path(lines[0]) if lines else None


def changed_files(ref: str = "HEAD", root: Path | None = None) -> list[Path] | None:
    """Python files touched relative to ``ref``: committed-diff against
    the ref, staged, unstaged, and untracked. ``None`` (distinct from an
    empty list) when there is no usable git repository or the ref does
    not resolve."""
    top = repo_root(root)
    if top is None:
        return None
    if not _git(top, "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"):
        return None
    names: set[str] = set()
    names.update(_git(top, "diff", "--name-only", ref, "--"))
    names.update(_git(top, "ls-files", "--others", "--exclude-standard"))
    files = []
    for name in sorted(names):
        path = top / name
        if path.suffix == ".py" and path.is_file():
            files.append(path)
    return files


def dependent_closure(index: ProjectIndex, touched_paths: set[str]) -> set[str]:
    """Display paths of ``touched_paths`` plus every file holding a
    transitive caller of a function defined in them."""
    callers = index.least_fixpoint(
        (fn.qualname for fn in index.functions.values() if fn.path in touched_paths),
        ProjectIndex.calls_member,
    )
    return set(touched_paths) | {index.functions[q].path for q in callers}


def changed_scope(
    all_files: list[Path], ref: str = "HEAD", root: Path | None = None
) -> tuple[set[str], list[Path]] | None:
    """The ``--changed`` report scope over ``all_files``.

    Returns ``(display_paths, touched_files)`` where ``display_paths``
    is the set of report paths (touched files + reverse-dependents) that
    findings should be filtered to, and ``touched_files`` is the raw
    git-touched subset of ``all_files``. ``None`` when git state is
    unusable (the caller falls back to linting everything).

    The analysis itself still runs over ``all_files`` — whole-program
    resolution needs every definition; only the *reporting* narrows.
    """
    from repro.lint.callgraph import build_index
    from repro.lint.core import _display_path, parse_file

    touched = changed_files(ref, root)
    if touched is None:
        return None
    resolved = {p.resolve() for p in touched}
    touched_in_scope = [p for p in all_files if p.resolve() in resolved]
    touched_display = {_display_path(p) for p in touched_in_scope}
    parsed = []
    for file_path in all_files:
        try:
            parsed.append(parse_file(file_path))
        except SyntaxError:
            continue
    index = build_index(parsed)
    return dependent_closure(index, touched_display), touched_in_scope

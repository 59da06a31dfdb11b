"""The caller closure across modules: who can an edit to a file affect?

``ProjectIndex.least_fixpoint(seeds, ProjectIndex.calls_member)`` walks
the reverse call edges from the seeds. Seeded with every function of one
file, it names every file holding a transitive caller; a file that calls
nothing in the closure stays out.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint.callgraph import ProjectIndex, build_index
from repro.lint.core import parse_file


@pytest.fixture
def project(tmp_path):
    """helper.py defines, caller.py calls it, bystander.py does neither."""
    (tmp_path / "helper.py").write_text(
        textwrap.dedent(
            """
            def compute_key(seed: int) -> int:
                return seed * 5
            """
        )
    )
    (tmp_path / "caller.py").write_text(
        textwrap.dedent(
            """
            from helper import compute_key


            def derive(seed: int) -> int:
                return compute_key(seed) + 1
            """
        )
    )
    (tmp_path / "bystander.py").write_text(
        textwrap.dedent(
            """
            def unrelated() -> int:
                return 7
            """
        )
    )
    return tmp_path


def _index(root: Path) -> ProjectIndex:
    return build_index([parse_file(p) for p in sorted(root.glob("*.py"))])


def _closure_files(root: Path, seed_file: str) -> set[str]:
    """Names of the files holding ``seed_file``'s functions or any of
    their transitive callers."""
    index = _index(root)
    seeds = (
        fn.qualname
        for fn in index.functions.values()
        if Path(fn.path).name == seed_file
    )
    members = index.least_fixpoint(seeds, ProjectIndex.calls_member)
    return {Path(index.functions[q].path).name for q in members}


class TestScope:
    def test_scope_pulls_in_reverse_dependents(self, project):
        # caller.py calls compute_key -> in the closure; bystander.py is not.
        assert _closure_files(project, "helper.py") == {"helper.py", "caller.py"}

    def test_closure_is_transitive(self, project):
        (project / "outer.py").write_text(
            textwrap.dedent(
                """
                from caller import derive


                def outermost(seed: int) -> int:
                    return derive(seed)
                """
            )
        )
        assert _closure_files(project, "helper.py") == {
            "helper.py", "caller.py", "outer.py",
        }

    def test_dependent_closure_direct(self, project):
        index = _index(project)
        assert index.least_fixpoint(
            {"helper:compute_key"}, ProjectIndex.calls_member
        ) == {"helper:compute_key", "caller:derive"}

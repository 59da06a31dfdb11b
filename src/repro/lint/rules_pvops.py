"""PV-Ops contract rules.

``PVOPS001`` — every physical page-table entry store must flow through
``PagingOps.apply_entry_write`` or its run form ``apply_entry_run``
(paper §5.2, Listing 1): they are the choke point that keeps valid-entry
counts correct and, under Mitosis, keeps replicas coherent. Any other ``*.entries[...]`` store or in-place
mutation is a replication-coherence bypass — written directly, or through
a local the function bound to ``<x>.entries`` (``entries = page.entries;
entries[i] = v``), the static twin of what the runtime ``PTESanitizer``
traps. Reads are free.

``PVOPS002`` — page-table *pages* have a managed lifecycle: frames come
from the per-socket :class:`~repro.mem.pagecache.PageTablePageCache`
(§5.1) and enter/leave a tree through ``alloc_table``/``release_table``.
Constructing a :class:`~repro.paging.pagetable.PageTablePage` or tagging
a frame ``FrameKind.PAGE_TABLE`` anywhere else escapes OOM accounting,
fault injection and replica reclaim.

Sites that bypass by *design* (the hardware walker's A/D stores, which
real MMUs issue without telling the OS) carry inline
``# lint: allow[PVOPS001] -- ...`` suppressions.
"""

from __future__ import annotations

import ast

from repro.lint.core import Rule, register_rule
from repro.lint.flow import iter_statements

#: The blessed writer functions. A raw entries store is legal only
#: lexically inside a function with one of these names (the PV-Ops choke
#: point: one entry, or one run of entries).
BLESSED_WRITERS = frozenset({"apply_entry_write", "apply_entry_run"})

#: ``module:qualname`` sites exempt from PVOPS001 without an inline
#: comment. Kept empty on purpose: exemptions should be visible at the
#: site (suppression) or reviewed in the baseline, not hidden here.
PVOPS001_ALLOWLIST: frozenset[str] = frozenset()

#: Functions allowed to construct table pages / tag PAGE_TABLE frames.
TABLE_LIFECYCLE_FUNCTIONS = frozenset({"alloc_table", "release_table"})

#: Modules that *are* the managed lifecycle (the page-cache itself).
PVOPS002_MODULE_ALLOWLIST = frozenset({"repro.mem.pagecache"})

_LIST_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
)


def _is_entries_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "entries"


def _is_listlike(node: ast.AST | None) -> bool:
    """Does ``node`` syntactically build a list (a plausible PTE array)?

    Distinguishes ``page.entries = [0] * 512`` (a table-page array swap,
    in scope) from unrelated attributes that happen to be called
    ``entries`` (e.g. a TLB's integer capacity, out of scope).
    """
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    if isinstance(node, ast.BinOp):
        return _is_listlike(node.left) or _is_listlike(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "GuardedEntries")
    return False


def _entries_aliases(func: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    """Locals ``func`` binds to somebody's ``.entries`` array (its own
    body, not nested definitions): stores through them bypass PV-Ops
    just as surely as a direct ``.entries[...]`` store."""
    return frozenset(
        stmt.targets[0].id
        for stmt in iter_statements(func)
        if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and _is_entries_attr(stmt.value)
    )


def _is_entries_array(node: ast.AST, aliases: frozenset[str]) -> bool:
    """``X.entries``, or a local alias of one."""
    return _is_entries_attr(node) or (
        isinstance(node, ast.Name) and node.id in aliases
    )


def _entries_store_target(
    node: ast.AST, value: ast.AST | None, aliases: frozenset[str]
) -> ast.AST | None:
    """The offending node when ``node`` is an assignment target that hits
    ``X.entries`` storage: ``X.entries[...]`` or ``alias[...]``, or
    ``X.entries`` itself being (re)bound to a list."""
    if isinstance(node, ast.Subscript) and _is_entries_array(node.value, aliases):
        return node
    if _is_entries_attr(node) and _is_listlike(value):
        return node
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            hit = _entries_store_target(element, value, aliases)
            if hit is not None:
                return hit
    if isinstance(node, ast.Starred):
        return _entries_store_target(node.value, value, aliases)
    return None


def _through(array: ast.AST) -> str:
    """Message fragment naming the local alias a store went through."""
    if isinstance(array, ast.Name):
        return f" through `{array.id}`, a local alias of `.entries`,"
    return ""


_STORE_MESSAGE = (
    "page-table entry store{through} bypasses PV-Ops; route it through "
    "PagingOps.apply_entry_write so every physical replica stays coherent"
)
_MUTATION_MESSAGE = (
    "in-place page-table entry mutation{through} bypasses PV-Ops; "
    "read, modify, then store via PagingOps.apply_entry_write"
)


@register_rule
class PteWriteRule(Rule):
    """PVOPS001: raw page-table entry stores outside the PV-Ops choke point."""

    name = "PVOPS001"
    description = _STORE_MESSAGE.format(through="")

    #: The innermost enclosing function's ``.entries`` aliases.
    _aliases: frozenset[str] = frozenset()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        outer, self._aliases = self._aliases, _entries_aliases(node)
        super()._visit_function(node)
        self._aliases = outer

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _allowed_here(self) -> bool:
        if self.current_function in BLESSED_WRITERS:
            return True
        return f"{self.module}:{self.qualname()}" in PVOPS001_ALLOWLIST

    def _check_target(
        self,
        target: ast.AST,
        node: ast.AST,
        value: ast.AST | None = None,
        message: str = _STORE_MESSAGE,
    ) -> None:
        hit = _entries_store_target(target, value, self._aliases)
        if hit is not None and not self._allowed_here():
            array = hit.value if isinstance(hit, ast.Subscript) else hit
            self.report(node, message.format(through=_through(array)))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target, node, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node, node.value, _MUTATION_MESSAGE)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LIST_MUTATORS
            and _is_entries_array(func.value, self._aliases)
            and not self._allowed_here()
        ):
            self.report(
                node,
                f"entries.{func.attr}(){_through(func.value)} mutates a "
                "page-table page in place; tables are fixed 512-entry arrays "
                "written only through PagingOps.apply_entry_write",
            )
        self.generic_visit(node)


def _kind_is_page_table(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "PAGE_TABLE"
        and isinstance(node.value, ast.Name)
        and node.value.id == "FrameKind"
    )


@register_rule
class TablePageLifecycleRule(Rule):
    """PVOPS002: page-table page alloc/free outside the managed lifecycle."""

    name = "PVOPS002"
    description = (
        "page-table page allocation bypasses the managed lifecycle; draw "
        "frames from PageTablePageCache inside alloc_table/release_table"
    )

    def _allowed_here(self) -> bool:
        if self.module in PVOPS002_MODULE_ALLOWLIST:
            return True
        return self.current_function in TABLE_LIFECYCLE_FUNCTIONS

    def visit_Call(self, node: ast.Call) -> None:
        if self._allowed_here():
            self.generic_visit(node)
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id == "PageTablePage":
            self.report(
                node,
                "PageTablePage constructed outside alloc_table; table pages "
                "must be created by a PagingOps backend (or the replication "
                "machinery) from PageTablePageCache frames",
            )
        if isinstance(func, ast.Attribute) and func.attr in (
            "alloc_frame",
            "alloc_huge_frame",
        ):
            for keyword in node.keywords:
                if keyword.arg == "kind" and _kind_is_page_table(keyword.value):
                    self.report(
                        node,
                        "page-table frame allocated directly from the node "
                        "allocator; use PageTablePageCache.alloc so the "
                        "per-socket reserve and fault injection apply (§5.1)",
                    )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._allowed_here() and _kind_is_page_table(node.value):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and target.attr == "kind":
                    self.report(
                        node,
                        "frame retagged as FrameKind.PAGE_TABLE outside "
                        "alloc_table; page-table frames enter the system "
                        "through the PageTablePageCache",
                    )
        self.generic_visit(node)

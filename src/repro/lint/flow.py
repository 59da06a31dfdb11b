"""Intraprocedural control-flow graphs + path-sensitive reachability.

This is the dataflow half of the whole-program checker
(:mod:`repro.lint.rules_protocol`): :func:`build_cfg` lowers one function
body into a statement-level CFG with explicit normal/raise edges and two
synthetic terminals (``EXIT`` for falling off the end or returning,
``RAISE`` for an exception escaping the function);
:func:`find_unprotected_path` then answers the protocol-rule question
*"is there a path from this obligation to a terminal that avoids every
sink?"* and returns the offending path for the finding message.

Every path question the linter asks — protocol obligations, resource
leaks, locks held across a spawn, pipe use after close — goes through
the one blocker-aware depth-first search, :func:`iter_paths`.

Design notes, in decreasing order of importance:

* Nodes are individual ``ast.stmt`` objects at any nesting depth; a
  compound statement's node stands for its *header* only (the ``if``
  test, the ``for`` iterable, the ``with`` context expressions — see
  :func:`executed_exprs`), its body statements are their own nodes.
* ``try/finally`` is modeled by **duplicating** the ``finally`` suite
  once per continuation (normal fall-through, each exception target,
  return, break, continue). Duplication keeps every path exact — a sink
  inside ``finally`` protects the exception path *and* the return path —
  at the cost of a few extra nodes, which is nothing at our function
  sizes.
* Exceptions are over-approximated: every statement that can plausibly
  raise gets a raise edge to the innermost handler dispatch (every
  handler entry, plus escape unless a catch-all handler exists).
* ``while True:`` (any constant-truthy test) gets no fall-through edge —
  its only normal exits are ``break`` — so sinks inside unconditional
  retry loops are not spuriously skippable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Collection, Iterator

_TRY_TYPES = (ast.Try,) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())
_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)
_NO_RAISE_TYPES = (ast.Pass, ast.Global, ast.Nonlocal, ast.Break, ast.Continue)


@dataclass
class Cfg:
    """One function's control-flow graph."""

    #: Synthetic terminal: normal completion (return / fall off the end).
    EXIT = 0
    #: Synthetic terminal: an exception escapes the function.
    RAISE = 1

    nodes: dict[int, ast.AST] = field(default_factory=dict)
    normal: dict[int, set[int]] = field(default_factory=dict)
    raises: dict[int, set[int]] = field(default_factory=dict)
    entry: int = EXIT
    #: ``id(ast stmt)`` -> node ids (finally duplication means one
    #: statement can appear as several nodes).
    stmt_nodes: dict[int, list[int]] = field(default_factory=dict)
    #: node id -> source line: what a path description needs.
    lines: dict[int, int] = field(default_factory=dict)

    def successors(self, node: int, *, include_raise: bool = True) -> set[int]:
        out = set(self.normal.get(node, ()))
        if include_raise:
            out |= self.raises.get(node, set())
        return out

    def nodes_for(self, stmt: ast.AST) -> list[int]:
        return self.stmt_nodes.get(id(stmt), [])

    def describe(self, node: int) -> str:
        if node == Cfg.EXIT:
            return "exit"
        if node == Cfg.RAISE:
            return "raise"
        return f"line {self.lines.get(node, '?')}"

    def describe_path(self, path: list[int]) -> str:
        return " -> ".join(self.describe(node) for node in path)


@dataclass(frozen=True)
class _Ctx:
    """Where control transfers out of the current statement list go."""

    raise_targets: tuple[int, ...]
    return_target: int
    break_target: int | None = None
    continue_target: int | None = None


class _Builder:
    def __init__(self) -> None:
        self.cfg = Cfg()
        self._next_id = 2  # 0/1 are the terminals

    # -- graph assembly ------------------------------------------------------

    def _node(self, stmt: ast.AST) -> int:
        nid = self._next_id
        self._next_id += 1
        self.cfg.nodes[nid] = stmt
        self.cfg.lines[nid] = getattr(stmt, "lineno", 0)
        self.cfg.stmt_nodes.setdefault(id(stmt), []).append(nid)
        return nid

    def _edge(self, src: int, dst: int) -> None:
        self.cfg.normal.setdefault(src, set()).add(dst)

    def _raise_edges(self, src: int, ctx: _Ctx) -> None:
        for target in ctx.raise_targets:
            self.cfg.raises.setdefault(src, set()).add(target)

    # -- statement lowering --------------------------------------------------

    def _seq(self, stmts: list[ast.stmt], follow: int, ctx: _Ctx) -> int:
        """Lower a suite; returns its entry node (``follow`` if empty)."""
        entry = follow
        for stmt in reversed(stmts):
            entry = self._stmt(stmt, entry, ctx)
        return entry

    def _stmt(self, stmt: ast.stmt, follow: int, ctx: _Ctx) -> int:
        if isinstance(stmt, ast.Return):
            nid = self._node(stmt)
            self._edge(nid, ctx.return_target)
            self._raise_edges(nid, ctx)  # the value expression may raise
            return nid
        if isinstance(stmt, ast.Break):
            nid = self._node(stmt)
            if ctx.break_target is not None:
                self._edge(nid, ctx.break_target)
            return nid
        if isinstance(stmt, ast.Continue):
            nid = self._node(stmt)
            if ctx.continue_target is not None:
                self._edge(nid, ctx.continue_target)
            return nid
        if isinstance(stmt, ast.Raise):
            nid = self._node(stmt)
            self._raise_edges(nid, ctx)
            return nid
        if isinstance(stmt, ast.If):
            nid = self._node(stmt)
            self._edge(nid, self._seq(stmt.body, follow, ctx))
            self._edge(nid, self._seq(stmt.orelse, follow, ctx))
            self._raise_edges(nid, ctx)
            return nid
        if isinstance(stmt, ast.While):
            nid = self._node(stmt)
            loop_ctx = replace(ctx, break_target=follow, continue_target=nid)
            self._edge(nid, self._seq(stmt.body, nid, loop_ctx))
            infinite = isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
            if not infinite:
                self._edge(nid, self._seq(stmt.orelse, follow, ctx))
            self._raise_edges(nid, ctx)
            return nid
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            nid = self._node(stmt)
            loop_ctx = replace(ctx, break_target=follow, continue_target=nid)
            self._edge(nid, self._seq(stmt.body, nid, loop_ctx))
            self._edge(nid, self._seq(stmt.orelse, follow, ctx))
            self._raise_edges(nid, ctx)
            return nid
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            nid = self._node(stmt)
            self._edge(nid, self._seq(stmt.body, follow, ctx))
            self._raise_edges(nid, ctx)
            return nid
        if isinstance(stmt, _TRY_TYPES):
            return self._try(stmt, follow, ctx)
        if isinstance(stmt, ast.Match):
            nid = self._node(stmt)
            for case in stmt.cases:
                self._edge(nid, self._seq(case.body, follow, ctx))
            self._edge(nid, follow)  # no case matched
            self._raise_edges(nid, ctx)
            return nid
        # Everything else — assignments, expression statements, asserts,
        # imports, nested def/class (the *definition* executes, not the
        # body) — is a straight-line node.
        nid = self._node(stmt)
        self._edge(nid, follow)
        if not isinstance(stmt, _NO_RAISE_TYPES):
            self._raise_edges(nid, ctx)
        return nid

    def _try(self, stmt: ast.Try, follow: int, ctx: _Ctx) -> int:
        if stmt.finalbody:
            # One duplicate of the finally suite per continuation, so a
            # sink in finally protects exactly the paths it really runs on.
            fin_norm = self._seq(stmt.finalbody, follow, ctx)
            raise_conts = tuple(
                self._seq(stmt.finalbody, target, ctx)
                for target in ctx.raise_targets
            )
            return_cont = self._seq(stmt.finalbody, ctx.return_target, ctx)
            break_cont = (
                self._seq(stmt.finalbody, ctx.break_target, ctx)
                if ctx.break_target is not None
                else None
            )
            continue_cont = (
                self._seq(stmt.finalbody, ctx.continue_target, ctx)
                if ctx.continue_target is not None
                else None
            )
        else:
            fin_norm = follow
            raise_conts = ctx.raise_targets
            return_cont = ctx.return_target
            break_cont = ctx.break_target
            continue_cont = ctx.continue_target

        out_ctx = _Ctx(
            raise_targets=raise_conts,
            return_target=return_cont,
            break_target=break_cont,
            continue_target=continue_cont,
        )
        handler_entries: list[int] = []
        catch_all = False
        for handler in stmt.handlers:
            hid = self._node(handler)
            self._edge(hid, self._seq(handler.body, fin_norm, out_ctx))
            self._raise_edges(hid, out_ctx)
            handler_entries.append(hid)
            if handler.type is None or (
                isinstance(handler.type, ast.Name)
                and handler.type.id == "BaseException"
            ):
                catch_all = True
        body_raise_targets = tuple(handler_entries) + (
            () if catch_all and handler_entries else raise_conts
        )
        orelse_entry = (
            self._seq(stmt.orelse, fin_norm, out_ctx) if stmt.orelse else fin_norm
        )
        body_ctx = replace(out_ctx, raise_targets=body_raise_targets)
        return self._seq(stmt.body, orelse_entry, body_ctx)


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Cfg:
    """Lower one function body into a :class:`Cfg`."""
    builder = _Builder()
    ctx = _Ctx(raise_targets=(Cfg.RAISE,), return_target=Cfg.EXIT)
    builder.cfg.entry = builder._seq(func.body, Cfg.EXIT, ctx)
    return builder.cfg


def executed_exprs(stmt: ast.AST) -> list[ast.AST]:
    """The expressions a CFG node actually evaluates.

    For a simple statement that is the whole statement; for a compound
    statement only its header (body statements are separate nodes); for
    nested ``def``/``class`` nothing (defining does not run the body).
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, _TRY_TYPES):
        return []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, _FUNC_TYPES + (ast.ClassDef,)):
        return []
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    return [stmt]


def iter_statements(func: ast.FunctionDef | ast.AsyncFunctionDef):
    """Every statement in ``func``'s body at any depth, *excluding* the
    bodies of nested function/class definitions (which the CFG treats as
    opaque definition statements)."""

    def _walk(stmts: list[ast.stmt]):
        for stmt in stmts:
            yield stmt
            if isinstance(stmt, _FUNC_TYPES + (ast.ClassDef,)):
                continue
            for attr in ("body", "orelse", "finalbody"):
                yield from _walk(getattr(stmt, attr, []) or [])
            for handler in getattr(stmt, "handlers", []) or []:
                yield handler
                yield from _walk(handler.body)
            for case in getattr(stmt, "cases", []) or []:
                yield from _walk(case.body)

    yield from _walk(func.body)


def iter_paths(
    cfg: Cfg,
    start: int,
    goals: Collection[int],
    blockers: Collection[int] = (),
    *,
    inclusive: bool = False,
    first_raise: bool = True,
) -> Iterator[list[int]]:
    """Depth-first, one path from ``start`` to each goal node reachable
    without passing a blocker, in a deterministic order (successors are
    explored smallest node id first).

    A goal ends its branch, and so do blockers and the two terminals.
    ``start`` itself is tested only when ``inclusive``; otherwise the
    search begins at its successors, following its raise edges only when
    ``first_raise``.
    """
    if inclusive:
        frontier = [(start, (start,))]
    else:
        first = cfg.successors(start, include_raise=first_raise)
        frontier = [(succ, (start, succ)) for succ in sorted(first, reverse=True)]
    visited: set[int] = set()
    while frontier:
        node, path = frontier.pop()
        if node in visited:
            continue
        visited.add(node)
        if node in blockers:
            continue
        if node in goals:
            yield list(path)
            continue
        if node in (Cfg.EXIT, Cfg.RAISE):
            continue
        for succ in sorted(cfg.successors(node), reverse=True):
            if succ not in visited:
                frontier.append((succ, path + (succ,)))


def find_unprotected_path(
    cfg: Cfg,
    start: int,
    sinks: Collection[int],
    *,
    inclusive: bool = False,
    count_exception_paths: bool = False,
) -> list[int] | None:
    """A path from ``start`` to a flagged terminal that avoids every sink
    node, or ``None`` if all such paths are protected.

    ``inclusive`` checks ``start`` itself as a potential sink (used for
    function-entry obligations, where ``start`` is the CFG entry);
    otherwise the obligation takes effect after ``start`` completes
    normally, and — when exception paths count — ``start``'s own raise
    edge is excused (if the obligation-creating call itself raised,
    nothing was begun).

    ``count_exception_paths=False`` excuses paths ending at ``RAISE``
    (an escaping exception is not a protocol violation for rules like
    TLBGEN); ``True`` flags them too (an unclosed trace span on an
    exception path is exactly the SPAN001 bug).
    """
    goals = {Cfg.EXIT} | ({Cfg.RAISE} if count_exception_paths else set())
    paths = iter_paths(
        cfg, start, goals, sinks,
        inclusive=inclusive, first_raise=not count_exception_paths,
    )
    return next(paths, None)

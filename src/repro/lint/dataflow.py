"""Interprocedural dataflow: determinism taint and resource lifecycles.

This is the third lint layer. The per-file rules (``DET001``–``DET003``)
see *occurrences* — a ``time.perf_counter()`` call, a set iterated — but
not where the value goes. The protocol layer (``TLBGEN``/``SHOOT``/
``SPAN``) sees *call pairings* but not values at all. This
module sees value flow: a fixed-point taint engine over the statement
CFGs of :mod:`repro.lint.flow` and the call graph of
:mod:`repro.lint.callgraph`, with per-function summaries computed
bottom-up over the SCCs of the call graph.

Four rules ride on it:

``DETFLOW001`` — a *nondeterministic value* (wall clock, OS entropy,
``os.getpid()``, ``id()``, an unseeded RNG) reaches a *determinism
sink*: a function marked ``# dataflow: sink[determinism]`` (the fleet's
``job_key``, report ``to_dict`` payloads with replay contracts, the
trace ring's ``_record``). Findings anchor at the **source** — the line
that produced the nondeterminism — because that is where the fix goes.

``DETFLOW002`` — an *order-tainted value* (anything folded out of
iteration over a ``set``/``frozenset`` expression, or ``list(set(...))``)
reaches a determinism sink. ``sorted(...)`` kills order taint; nothing
else does.

``RES001`` — an acquired handle (pipe ends from a bare ``Pipe`` alias
or any ``<expr>.Pipe(...)``, ``Connection``-annotated locals, a started
``Process``, a bare ``open()`` file) has a CFG path — raise edges
included — that reaches a terminal without the handle being released
(``.close()`` / ``.join()``), escaping (stored on ``self``, returned,
handed to an unknown callee or a callee whose summary releases it), or
being managed by ``with``. It is the one proof that pipe ends close. The
same rule pins the worker pool's reaping discipline: every
``.terminate()`` / ``.kill()`` must be followed by ``.join()`` on every
normal path.

``RES002`` — a temp file created for atomic publication (a path whose
name contains ``.tmp``, written via ``open()``/``write_text``) must
reach ``os.replace``/``.rename``/``.unlink`` on every **normal** path.
Exception paths are excused: the fleet cache's documented stale-tmp
sweep (``ResultCache.put``) reclaims those, and RES002 verifies exactly
that pairing of disciplines.

Sanctioned wrappers are declared in source, next to the code they bless,
with the marker grammar of :mod:`repro.lint.callgraph`::

    # dataflow: sanitizes[nondet] -- virtual time: deterministic by contract
    def tick(self) -> float: ...

``sanitizes[nondet]`` launders taint (the virtual clock, crc32-seeding
helpers); ``source[nondet]`` introduces it at every call site;
``sink[determinism]`` makes a function a sink — every argument flowing
in and every value flowing out of its return must be deterministic.

**No on-disk state.** Every run lowers every function afresh, one
taint graph over the function's CFG from the shared
:class:`~repro.lint.callgraph.ProjectIndex`, and keeps the IR in memory
only. Stats (modules and functions analyzed) surface in
``lint --format json`` and ``lint --stats FILE``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.lint.callgraph import FunctionInfo, ProjectIndex, parse_annotation
from repro.lint.concurrency import _is_pipe_ctor
from repro.lint.core import (
    Finding,
    WholeProgramRule,
    register_whole_program_rule,
)
from repro.lint.flow import (
    executed_exprs,
    find_unprotected_path,
    iter_statements,
)
from repro.lint.rules_determinism import _BANNED_CALLS, _is_unordered_expr

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

# -- nondeterministic sources -------------------------------------------------
# DET001's banned-call tables, plus the value-flow-only sources the
# per-file rule deliberately ignores (os.getpid is fine to *call*; it is
# only a bug when the pid reaches a replayed payload).

_NONDET_EXTRA: dict[str, frozenset[str]] = {
    "os": frozenset({"getpid", "getppid"}),
    "time": frozenset(),
}

#: Builtins whose result never carries taint from their arguments.
_TAINT_STOPPERS = frozenset(
    {"len", "bool", "isinstance", "issubclass", "range", "type", "repr", "callable"}
)

#: Builtins that re-establish a deterministic order (kill order taint).
_ORDER_KILLERS = frozenset({"sorted"})

#: Calls over an unordered operand whose result leaks iteration order.
_ORDER_LEAKERS = frozenset({"list", "tuple", "iter", "enumerate"})

#: Method names that mutate their receiver in place (order-taint carriers
#: inside a ``for`` over a set, and container-escape sinks for handles).
_MUTATORS = frozenset(
    {"append", "add", "extend", "insert", "update", "setdefault", "appendleft"}
)


def _tracked_aliases(tree: ast.Module) -> dict[str, str]:
    """local name -> canonical dotted module, for source/resource tables."""
    aliases: dict[str, str] = {}
    from repro.lint.rules_determinism import _TRACKED_MODULES

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _TRACKED_MODULES:
                    aliases[alias.asname or alias.name.split(".")[0]] = (
                        _TRACKED_MODULES[alias.name]
                    )
                elif alias.name == "multiprocessing":
                    aliases[alias.asname or "multiprocessing"] = "multiprocessing"
        elif isinstance(node, ast.ImportFrom):
            if node.module == "multiprocessing":
                for alias in node.names:
                    if alias.name in ("Pipe", "Process"):
                        aliases[alias.asname or alias.name] = (
                            f"multiprocessing.{alias.name}"
                        )
    return aliases


def _canonical(expr: ast.AST, aliases: dict[str, str]) -> str | None:
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _canonical(expr.value, aliases)
        if base is not None:
            dotted = f"{base}.{expr.attr}"
            from repro.lint.rules_determinism import _TRACKED_MODULES

            if dotted in _TRACKED_MODULES:
                return dotted
    return None


def _nondet_desc(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """Description when ``call`` syntactically produces a nondeterministic
    value, else ``None``. Mirrors DET001's tables plus getpid/id()."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "id":
            return "id() (a per-process memory address)"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    owner = _canonical(func.value, aliases)
    if owner is None:
        return None
    attr = func.attr
    # Seeded constructors are the sanctioned pattern; unseeded are sources.
    if owner == "random" and attr == "Random":
        return "random.Random() without a seed" if not call.args and not call.keywords else None
    if owner == "numpy.random" and attr == "default_rng":
        return (
            "np.random.default_rng() without a seed"
            if not call.args and not call.keywords
            else None
        )
    banned = _BANNED_CALLS.get(owner)
    if owner in _BANNED_CALLS and banned is None:
        return f"{owner}.{attr}() (global unseeded state)"
    if banned is not None and attr in banned:
        return f"{owner}.{attr}()"
    if attr in _NONDET_EXTRA.get(owner, ()):
        return f"{owner}.{attr}()"
    return None


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, Any]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    kwonly = [a.arg for a in args.kwonlyargs]
    return {
        "pos": names,
        "kwonly": kwonly,
        "vararg": args.vararg.arg if args.vararg else None,
        "kwarg": args.kwarg.arg if args.kwarg else None,
    }


# -- per-function IR extraction -----------------------------------------------


class _FunctionExtractor:
    """Lowers one function body into the taint/resource IR."""

    def __init__(
        self, index: ProjectIndex, fn: FunctionInfo, aliases: dict[str, str]
    ):
        from repro.lint.callgraph import _Typer

        self.index = index
        self.fn = fn
        self.aliases = aliases
        self.pipe_names = {
            name for name, target in aliases.items()
            if target == "multiprocessing.Pipe"
        }
        self.typer = _Typer(index, fn)
        self.cfg = index.cfg(fn)
        self.call_sites = {id(site.call): site for site in fn.calls}
        self.edges: dict[str, set[str]] = {}
        self.kills: set[str] = set()
        self.calls: list[dict] = []
        self.sources: list[dict] = []
        self.returns: list[dict] = []
        self.res: dict[str, list[dict]] = {
            "acquires": [],
            "releases": [],
            "escapes": [],
            "callpass": [],
            "terminates": [],
            "joins": [],
        }
        self._counter = 0
        self._call_nodes: dict[int, set[str]] = {}  # id(ast.Call) -> dep nodes
        # Names holding ".tmp" paths / mp contexts / mp Process objects.
        self.tmpvars: set[str] = set()
        self.ctxvars: set[str] = set()
        self.procvars: set[str] = set()
        self._prescan()

    # -- small helpers --------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}:{self._counter}"

    def _edge(self, dst: str, srcs: Iterable[str]) -> None:
        if srcs:
            self.edges.setdefault(dst, set()).update(srcs)

    def _context(self, line: int) -> str:
        return self.index.source_line(self.fn.path, line)

    def _node_ids(self, stmt: ast.stmt) -> list[int]:
        return self.cfg.nodes_for(stmt)

    # -- pre-scan: tmp paths, mp contexts, Process locals ---------------------

    def _prescan(self) -> None:
        for stmt in iter_statements(self.fn.node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                continue
            if any(
                isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
                and ".tmp" in sub.value
                for sub in ast.walk(stmt.value)
            ):
                self.tmpvars.update(names)
            for sub in ast.walk(stmt.value):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    if (
                        sub.func.attr == "get_context"
                        and _canonical(sub.func.value, self.aliases)
                        == "multiprocessing"
                    ):
                        self.ctxvars.update(names)
                if self._mp_call_kind(sub) == "process":
                    self.procvars.update(names)

    def _mp_call_kind(self, expr: ast.AST) -> str | None:
        """"pipe"/"process" when ``expr`` constructs that mp object."""
        if not isinstance(expr, ast.Call):
            return None
        if _is_pipe_ctor(expr, self.pipe_names):
            return "pipe"
        func = expr.func
        if isinstance(func, ast.Name):
            target = self.aliases.get(func.id)
            return "process" if target == "multiprocessing.Process" else None
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "Process"
            and isinstance(func.value, ast.Name)
            and (
                self.aliases.get(func.value.id) == "multiprocessing"
                or func.value.id in self.ctxvars
            )
        ):
            return "process"
        return None

    # -- expression lowering --------------------------------------------------

    def _expr_deps(self, expr: ast.AST) -> set[str]:
        if isinstance(expr, ast.Constant):
            return set()
        if isinstance(expr, ast.Name):
            return {f"v:{expr.id}"}
        if isinstance(expr, ast.Attribute):
            node = self._attr_node(expr)
            if node is not None:
                return {node}
            return self._expr_deps(expr.value)
        if isinstance(expr, ast.Call):
            return self._call_deps(expr)
        if isinstance(expr, ast.Lambda):
            return set()  # deferred execution; the body runs elsewhere
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            deps: set[str] = set()
            for child in ast.iter_child_nodes(expr):
                deps |= self._expr_deps(child)
            if any(_is_unordered_expr(gen.iter) for gen in expr.generators):
                if not isinstance(expr, (ast.SetComp,)):
                    deps.add(self._order_source(expr))
            return deps
        if isinstance(expr, ast.comprehension):
            return self._expr_deps(expr.iter) | {
                d for cond in expr.ifs for d in self._expr_deps(cond)
            }
        deps = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                deps |= self._expr_deps(child)
            elif isinstance(child, ast.FormattedValue):
                deps |= self._expr_deps(child.value)
        if isinstance(expr, ast.keyword):
            deps |= self._expr_deps(expr.value)
        return deps

    def _attr_node(self, expr: ast.Attribute) -> str | None:
        """``a:Class.attr`` when the receiver types to a project class."""
        base = self.typer.infer(expr.value)
        if base is not None and base[0] == "class":
            if self.index._unique_class(base[1]) is not None:
                return f"a:{base[1]}.{expr.attr}"
        return None

    def _order_source(self, anchor: ast.AST) -> str:
        node = self._fresh("s")
        line = getattr(anchor, "lineno", self.fn.lineno)
        self.sources.append(
            {
                "node": node,
                "kind": "order",
                "line": line,
                "desc": "iteration over an unordered set expression",
            }
        )
        return node

    def _call_deps(self, call: ast.Call) -> set[str]:
        cached = self._call_nodes.get(id(call))
        if cached is not None:
            return set(cached)
        deps = self._call_deps_uncached(call)
        self._call_nodes[id(call)] = set(deps)
        return deps

    def _call_deps_uncached(self, call: ast.Call) -> set[str]:
        func = call.func
        arg_deps = [self._expr_deps(a) for a in call.args]
        kw_deps = {
            (kw.arg or "**"): self._expr_deps(kw.value) for kw in call.keywords
        }
        all_args: set[str] = set().union(*arg_deps) if arg_deps else set()
        for deps in kw_deps.values():
            all_args |= deps

        # Builtins with special taint behavior.
        if isinstance(func, ast.Name):
            if func.id in _TAINT_STOPPERS:
                return set()
            if func.id in _ORDER_KILLERS or func.id in ("set", "frozenset"):
                # sorted() re-establishes deterministic order; set() keeps
                # nondet taint but sheds order taint — order only
                # re-materializes when the set is iterated again.
                node = self._fresh("k")
                self.kills.add(node)
                self._edge(node, all_args)
                return {node}
            if func.id in _ORDER_LEAKERS and call.args and _is_unordered_expr(call.args[0]):
                return all_args | {self._order_source(call)}
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and call.args
            and _is_unordered_expr(call.args[0])
        ):
            return all_args | self._expr_deps(func.value) | {self._order_source(call)}

        desc = _nondet_desc(call, self.aliases)
        if desc is not None:
            node = self._fresh("s")
            self.sources.append(
                {"node": node, "kind": "nondet", "line": call.lineno, "desc": desc}
            )
            return {node}

        site = self.call_sites.get(id(call))
        recv = (
            self._expr_deps(func.value) if isinstance(func, ast.Attribute) else set()
        )
        node = self._fresh("c")
        record = {
            "node": node,
            "refs": sorted(site.resolutions) if site is not None else [],
            "repr": site.callee_repr if site is not None else "<call>",
            "bound": isinstance(func, ast.Attribute),
            "recv": sorted(recv),
            "pos": [sorted(d) for d in arg_deps],
            "kw": {k: sorted(v) for k, v in kw_deps.items()},
            "line": call.lineno,
            "col": call.col_offset,
            "context": self._context(call.lineno),
        }
        self.calls.append(record)
        return {node}

    # -- statement lowering ---------------------------------------------------

    def extract(self) -> dict:
        params = _param_names(self.fn.node)
        for p in params["pos"] + params["kwonly"]:
            self._edge(f"v:{p}", {f"p:{p}"})
        for extra in (params["vararg"], params["kwarg"]):
            if extra:
                self._edge(f"v:{extra}", {f"p:{extra}"})
        for stmt in iter_statements(self.fn.node):
            self._stmt(stmt)
            self._resources(stmt)
        return {
            "qualname": self.fn.qualname,
            "module": self.fn.module,
            "path": self.fn.path,
            "cls": self.fn.cls,
            "name": self.fn.name,
            "line": self.fn.lineno,
            "params": params,
            "edges": {dst: sorted(srcs) for dst, srcs in sorted(self.edges.items())},
            "kills": self.kills,
            "calls": self.calls,
            "sources": self.sources,
            "returns": self.returns,
            "res": self.res,
        }

    def _bind_target(self, target: ast.AST, deps: set[str]) -> None:
        if isinstance(target, ast.Name):
            self._edge(f"v:{target.id}", deps)
        elif isinstance(target, ast.Attribute):
            node = self._attr_node(target)
            if node is not None:
                self._edge(node, deps)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, deps)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, deps)
        elif isinstance(target, ast.Subscript):
            # Storing a tainted value into a container taints the container.
            if isinstance(target.value, ast.Name):
                self._edge(f"v:{target.value.id}", deps)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            deps = self._expr_deps(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, deps)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind_target(stmt.target, self._expr_deps(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            deps = self._expr_deps(stmt.value)
            if isinstance(stmt.target, ast.Name):
                deps = deps | {f"v:{stmt.target.id}"}
            self._bind_target(stmt.target, deps)
        elif isinstance(stmt, (ast.Return,)):
            if stmt.value is not None:
                deps = self._expr_deps(stmt.value)
                self._edge("ret", deps)
                self.returns.append(
                    {"line": stmt.lineno, "context": self._context(stmt.lineno)}
                )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            deps = self._expr_deps(stmt.iter)
            self._bind_target(stmt.target, deps)
            if _is_unordered_expr(stmt.iter):
                src = self._order_source(stmt.iter)
                for name in self._loop_fold_names(stmt):
                    self._edge(f"v:{name}", {src})
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                deps = self._expr_deps(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, deps)
        else:
            for root in executed_exprs(stmt):
                self._expr_deps(root)
        # Mutating method calls taint their receiver with the argument:
        # rows.append(tainted) makes rows tainted.
        for root in executed_exprs(stmt):
            for sub in ast.walk(root if isinstance(root, ast.AST) else stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _MUTATORS
                    and isinstance(sub.func.value, ast.Name)
                ):
                    deps: set[str] = set()
                    for arg in sub.args:
                        deps |= self._expr_deps(arg)
                    self._edge(f"v:{sub.func.value.id}", deps)

    def _loop_fold_names(self, loop: ast.For | ast.AsyncFor) -> set[str]:
        """Names an iteration-order-dependent fold accumulates into inside
        ``loop``'s body: assignment targets, augmented assignments,
        subscript stores, and receivers of mutating method calls."""
        names: set[str] = set()
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Assign,)):
                    for target in sub.targets:
                        names |= _target_names(target)
                elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                    names |= _target_names(sub.target)
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _MUTATORS
                    and isinstance(sub.func.value, ast.Name)
                ):
                    names.add(sub.func.value.id)
        return names

    # -- resource records -----------------------------------------------------

    def _resources(self, stmt: ast.stmt) -> None:
        is_with = isinstance(stmt, (ast.With, ast.AsyncWith))
        with_exprs = (
            {id(item.context_expr) for item in stmt.items} if is_with else set()
        )
        for root in executed_exprs(stmt):
            for sub in ast.walk(root if isinstance(root, ast.AST) else stmt):
                if isinstance(sub, ast.Call):
                    self._resource_call(stmt, sub, in_with=id(sub) in with_exprs)
        if isinstance(stmt, ast.Assign):
            self._resource_assign(stmt, stmt.targets)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name) and parse_annotation(
                stmt.annotation
            ) == ("class", "Connection"):
                self._acquire(stmt, stmt.target.id, "pipe", "pipe end")
            self._resource_assign(stmt, [stmt.target])
        elif isinstance(stmt, (ast.Return,)) and stmt.value is not None:
            for name in _names_in(stmt.value):
                self._escape(stmt, name, "returned")

    def _resource_assign(
        self, stmt: ast.Assign | ast.AnnAssign, targets: list[ast.expr]
    ) -> None:
        kind = self._mp_call_kind(stmt.value)
        if kind == "pipe":
            for target in targets:
                elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else []
                for elt in elts:
                    if isinstance(elt, ast.Name):
                        self._acquire(stmt, elt.id, "pipe", "pipe end")
                    # A pipe end landing directly on an attribute has
                    # escaped at birth — the object owns it now.
        # Escape by aliasing/containment: the raw value (or a container
        # holding it) now has a second name we don't track.
        target = targets[0]
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            for name in _names_in(stmt.value):
                self._escape(stmt, name, "stored")
        elif isinstance(target, ast.Name):
            for name in _container_names(stmt.value):
                self._escape(stmt, name, "aliased")

    def _resource_call(self, stmt: ast.stmt, call: ast.Call, *, in_with: bool) -> None:
        func = call.func
        # open(path) — a file handle, or the tmp-path obligation.
        if isinstance(func, ast.Name) and func.id == "open" and call.args:
            first = call.args[0]
            if isinstance(first, ast.Name) and first.id in self.tmpvars:
                self._acquire(stmt, first.id, "tmpfile", "tmp file on disk")
            if not in_with:
                bound = self._binding_name(stmt, call)
                if bound is not None:
                    self._acquire(stmt, bound, "file", "open file handle")
            return
        # Path.write_text / write_bytes on a tmp path.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("write_text", "write_bytes")
            and isinstance(func.value, ast.Name)
            and func.value.id in self.tmpvars
        ):
            self._acquire(stmt, func.value.id, "tmpfile", "tmp file on disk")
            return
        # proc.start() — a started worker process needs reaping.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "start"
            and isinstance(func.value, ast.Name)
            and func.value.id in self.procvars
        ):
            self._acquire(stmt, func.value.id, "process", "started process")
            return
        if isinstance(func, ast.Attribute):
            recv = func.value
            recv_text = ast.unparse(recv)
            if func.attr in ("terminate", "kill"):
                self.res["terminates"].append(
                    {
                        "node_ids": self._node_ids(stmt),
                        "recv": recv_text,
                        "word": func.attr,
                        "line": call.lineno,
                        "col": call.col_offset,
                        "context": self._context(call.lineno),
                    }
                )
            if func.attr == "join":
                self.res["joins"].append(
                    {"node_ids": self._node_ids(stmt), "recv": recv_text}
                )
            if isinstance(recv, ast.Name):
                if func.attr in ("close", "join", "terminate", "kill"):
                    self.res["releases"].append(
                        {
                            "node_ids": self._node_ids(stmt),
                            "var": recv.id,
                            "how": f".{func.attr}()",
                        }
                    )
                if func.attr in ("replace", "rename", "unlink") and recv.id in self.tmpvars:
                    self.res["releases"].append(
                        {
                            "node_ids": self._node_ids(stmt),
                            "var": recv.id,
                            "how": f".{func.attr}()",
                        }
                    )
            # os.replace(tmp, final) / os.rename / os.unlink release the path.
            owner = _canonical(func.value, self.aliases)
            if owner == "os" and func.attr in ("replace", "rename", "unlink", "remove"):
                for arg in call.args[:1]:
                    if isinstance(arg, ast.Name):
                        self.res["releases"].append(
                            {
                                "node_ids": self._node_ids(stmt),
                                "var": arg.id,
                                "how": f"os.{func.attr}()",
                            }
                        )
                return
        # Handing a handle to a callee: resolved project callees get a
        # transitive callpass record; anything unknown takes ownership.
        site = self.call_sites.get(id(call))
        refs = sorted(site.resolutions) if site is not None else []
        arg_names: list[tuple[str, int | None, str | None]] = []
        for i, arg in enumerate(call.args):
            for name in _names_in(arg):
                arg_names.append((name, i, None))
        for kw in call.keywords:
            for name in _names_in(kw.value):
                arg_names.append((name, None, kw.arg or "**"))
        if not arg_names:
            return
        bound = isinstance(call.func, ast.Attribute)
        if refs:
            for name, pos, kw in arg_names:
                self.res["callpass"].append(
                    {
                        "node_ids": self._node_ids(stmt),
                        "var": name,
                        "refs": refs,
                        "pos": pos,
                        "kw": kw,
                        "bound": bound,
                    }
                )
        else:
            for name, _, _ in arg_names:
                self._escape(stmt, name, "passed to an unknown callee")

    def _binding_name(self, stmt: ast.stmt, call: ast.Call) -> str | None:
        """The local name ``stmt`` binds ``call``'s result to, if any."""
        if (
            isinstance(stmt, ast.Assign)
            and stmt.value is call
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            return stmt.targets[0].id
        return None

    def _acquire(self, stmt: ast.stmt, var: str, kind: str, desc: str) -> None:
        line = getattr(stmt, "lineno", self.fn.lineno)
        self.res["acquires"].append(
            {
                "node_ids": self._node_ids(stmt),
                "var": var,
                "kind": kind,
                "desc": desc,
                "line": line,
                "col": getattr(stmt, "col_offset", 0),
                "context": self._context(line),
            }
        )

    def _escape(self, stmt: ast.stmt, var: str, how: str) -> None:
        self.res["escapes"].append(
            {"node_ids": self._node_ids(stmt), "var": var, "how": how}
        )


def _target_names(target: ast.AST) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for elt in target.elts:
            out |= _target_names(elt)
        return out
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
        return {target.value.id}
    return set()


def _names_in(expr: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _container_names(expr: ast.AST) -> set[str]:
    """Names aliased by binding ``expr`` to a new name: a bare name, or a
    name sitting directly inside a container display. Arithmetic or call
    results do *not* alias their operands."""
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        out: set[str] = set()
        for elt in expr.elts:
            out |= _container_names(elt)
        return out
    if isinstance(expr, ast.Dict):
        out = set()
        for value in expr.values:
            out |= _container_names(value)
        return out
    if isinstance(expr, ast.Starred):
        return _container_names(expr.value)
    return set()


# -- the interprocedural solver -----------------------------------------------

# Taint tokens: ("nondet", path, line, desc) | ("order", path, line, desc)
# | ("param", name). Param tokens are symbolic placeholders substituted
# with caller argument taint at each call site — that substitution *is*
# the per-function summary.

_CONCRETE = ("nondet", "order")


@dataclass
class _Summary:
    ret_tokens: set[tuple] = field(default_factory=set)
    #: param name -> description of the sink it reaches.
    sink_params: dict[str, str] = field(default_factory=dict)
    releases: set[str] = field(default_factory=set)
    stores: set[str] = field(default_factory=set)

    def snapshot(self) -> tuple:
        return (
            frozenset(self.ret_tokens),
            frozenset(self.sink_params),
            frozenset(self.releases),
            frozenset(self.stores),
        )


class ProjectDataflow:
    """The solved whole-program analysis: IRs, summaries, findings."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.irs: dict[str, dict] = {}
        self.summaries: dict[str, _Summary] = {}
        self.attr_env: dict[str, set[tuple]] = {}
        self.findings: dict[str, list[Finding]] = {
            "DETFLOW001": [],
            "DETFLOW002": [],
            "RES001": [],
            "RES002": [],
        }
        self.stats: dict[str, int] = {"modules": 0, "functions": 0}
        self._extract_all()
        self._order = _scc_order(
            {
                q: sorted({r for call in ir["calls"] for r in call["refs"]})
                for q, ir in self.irs.items()
            }
        )
        self._solve_summaries()
        self._collect_findings()

    # -- extraction -----------------------------------------------------------

    def _extract_all(self) -> None:
        by_path: dict[str, list[FunctionInfo]] = {}
        for fn in self.index.functions.values():
            by_path.setdefault(fn.path, []).append(fn)
        for parsed in sorted(self.index.modules, key=lambda m: m.path):
            self.stats["modules"] += 1
            aliases = _tracked_aliases(parsed.tree)
            for fn in sorted(by_path.get(parsed.path, []), key=lambda f: f.qualname):
                self.irs[fn.qualname] = _FunctionExtractor(
                    self.index, fn, aliases
                ).extract()
                self.stats["functions"] += 1

    # -- markers --------------------------------------------------------------

    def _marked(self, qualname: str, verb: str, key: str) -> bool:
        fn = self.index.functions.get(qualname)
        return fn is not None and fn.marked(verb, key)

    # -- taint evaluation -----------------------------------------------------

    def _eval(self, ir: dict) -> dict[str, set[tuple]]:
        env: dict[str, set[tuple]] = {}
        params = ir["params"]
        for p in params["pos"] + params["kwonly"]:
            env[f"p:{p}"] = {("param", p)}
        for extra in (params["vararg"], params["kwarg"]):
            if extra:
                env[f"p:{extra}"] = {("param", extra)}
        for src in ir["sources"]:
            env[src["node"]] = {(src["kind"], ir["path"], src["line"], src["desc"])}
        kills = ir["kills"]
        for _ in range(64):
            changed = False
            for call in ir["calls"]:
                new = self._call_tokens(ir, call, env)
                if not new <= env.get(call["node"], set()):
                    env.setdefault(call["node"], set()).update(new)
                    changed = True
            for dst, srcs in ir["edges"].items():
                acc: set[tuple] = set()
                for src in srcs:
                    if src.startswith("a:"):
                        acc |= self.attr_env.get(src, set())
                    else:
                        acc |= env.get(src, set())
                if dst in kills:
                    acc = {t for t in acc if t[0] != "order"}
                if not acc <= env.get(dst, set()):
                    env.setdefault(dst, set()).update(acc)
                    changed = True
            if not changed:
                break
        return env

    def _tokens(self, deps: Iterable[str], env: dict[str, set[tuple]]) -> set[tuple]:
        """Taint of dependency nodes: attributes from the shared attribute
        environment, everything else from ``env``."""
        out: set[tuple] = set()
        for d in deps:
            if d.startswith("a:"):
                out |= self.attr_env.get(d, set())
            else:
                out |= env.get(d, set())
        return out

    def _map_args(
        self, call: dict, callee_ir: dict, env: dict[str, set[tuple]]
    ) -> dict[str, set[tuple]]:
        """Caller-side taint per callee parameter name."""
        params = callee_ir["params"]
        pos_params = list(params["pos"])
        mapping: dict[str, set[tuple]] = {}
        offset = 0
        if call["bound"] and callee_ir["cls"] is not None and pos_params:
            mapping[pos_params[0]] = self._tokens(call["recv"], env)
            offset = 1
        for i, deps in enumerate(call["pos"]):
            idx = i + offset
            param = pos_params[idx] if idx < len(pos_params) else params["vararg"]
            if param:
                mapping.setdefault(param, set()).update(self._tokens(deps, env))
        for kw, deps in call["kw"].items():
            taint = self._tokens(deps, env)
            if kw in pos_params or kw in params["kwonly"]:
                mapping.setdefault(kw, set()).update(taint)
            elif params["kwarg"]:
                mapping.setdefault(params["kwarg"], set()).update(taint)
            elif kw == "**":
                for p in pos_params + params["kwonly"]:
                    mapping.setdefault(p, set()).update(taint)
        return mapping

    def _call_tokens(
        self, ir: dict, call: dict, env: dict[str, set[tuple]]
    ) -> set[tuple]:
        all_args: set[tuple] = self._tokens(call["recv"], env)
        for deps in call["pos"]:
            all_args |= self._tokens(deps, env)
        for deps in call["kw"].values():
            all_args |= self._tokens(deps, env)
        refs = call["refs"]
        if not refs:
            return all_args  # unknown callee: conservative pass-through
        out: set[tuple] = set()
        for q in refs:
            if self._marked(q, "sanitizes", "nondet"):
                continue
            if self._marked(q, "source", "nondet"):
                out.add(
                    ("nondet", ir["path"], call["line"], f"{q}() (marked source[nondet])")
                )
                continue
            callee_ir = self.irs.get(q)
            summary = self.summaries.get(q)
            if callee_ir is None or summary is None:
                out |= all_args
                continue
            pmap = self._map_args(call, callee_ir, env)
            for tok in summary.ret_tokens:
                if tok[0] == "param":
                    out |= pmap.get(tok[1], set())
                else:
                    out.add(tok)
        return out

    # -- summary fixpoint -----------------------------------------------------

    def _sink_param_names(self, qualname: str) -> dict[str, str]:
        """Callee params whose taint lands in a sink: every param of a
        ``sink[determinism]``-marked function, plus transitive ones."""
        out: dict[str, str] = {}
        summary = self.summaries.get(qualname)
        if summary is not None:
            out.update(summary.sink_params)
        if self._marked(qualname, "sink", "determinism"):
            ir = self.irs.get(qualname)
            if ir is not None:
                params = ir["params"]
                for p in params["pos"] + params["kwonly"]:
                    out.setdefault(p, f"{qualname}()")
                for extra in (params["vararg"], params["kwarg"]):
                    if extra:
                        out.setdefault(extra, f"{qualname}()")
        return out

    def _solve_summaries(self) -> None:
        for q in self.irs:
            self.summaries[q] = _Summary()
        for _ in range(20):
            before_attrs = {k: set(v) for k, v in self.attr_env.items()}
            changed = False
            for group in self._order:
                for _ in range(10):
                    group_changed = False
                    for q in group:
                        if self._update_summary(q):
                            group_changed = changed = True
                    if not group_changed:
                        break
            if not changed and self.attr_env == before_attrs:
                break

    def _update_summary(self, qualname: str) -> bool:
        ir = self.irs[qualname]
        summary = self.summaries[qualname]
        before = summary.snapshot()
        env = self._eval(ir)
        # Return summary: concrete + param tokens reaching `ret`.
        summary.ret_tokens |= env.get("ret", set())
        # Attr writes feed the global attribute environment.
        for dst, _ in ir["edges"].items():
            if dst.startswith("a:"):
                tokens = {t for t in env.get(dst, set()) if t[0] in _CONCRETE}
                if not tokens <= self.attr_env.get(dst, set()):
                    self.attr_env.setdefault(dst, set()).update(tokens)
        # Sink-reaching params (transitive through call sites).
        own_sink = self._marked(qualname, "sink", "determinism")
        if own_sink:
            for tok in env.get("ret", set()):
                if tok[0] == "param":
                    summary.sink_params.setdefault(tok[1], f"{qualname}()")
        for call in ir["calls"]:
            for q in call["refs"]:
                sink_params = self._sink_param_names(q)
                if not sink_params:
                    continue
                callee_ir = self.irs.get(q)
                if callee_ir is None:
                    continue
                pmap = self._map_args(call, callee_ir, env)
                for sp, desc in sink_params.items():
                    for tok in pmap.get(sp, set()):
                        if tok[0] == "param":
                            summary.sink_params.setdefault(tok[1], desc)
        # Resource effects.
        params = set(
            ir["params"]["pos"]
            + ir["params"]["kwonly"]
            + [p for p in (ir["params"]["vararg"], ir["params"]["kwarg"]) if p]
        )
        for rec in ir["res"]["releases"]:
            if rec["var"] in params:
                summary.releases.add(rec["var"])
        for rec in ir["res"]["escapes"]:
            if rec["var"] in params:
                summary.stores.add(rec["var"])
        for rec in ir["res"]["callpass"]:
            if rec["var"] not in params:
                continue
            for q in rec["refs"]:
                callee = self.summaries.get(q)
                callee_ir = self.irs.get(q)
                if callee is None or callee_ir is None:
                    summary.stores.add(rec["var"])
                    continue
                target = _callpass_target(rec, callee_ir)
                if target is None:
                    continue
                if target in callee.releases:
                    summary.releases.add(rec["var"])
                if target in callee.stores:
                    summary.stores.add(rec["var"])
        return summary.snapshot() != before

    # -- findings -------------------------------------------------------------

    def _collect_findings(self) -> None:
        seen: set[tuple] = set()
        for qualname in sorted(self.irs):
            ir = self.irs[qualname]
            env = self._eval(ir)
            self._taint_findings(qualname, ir, env, seen)
            self._resource_findings(qualname, ir)
        for rule in self.findings:
            self.findings[rule].sort(key=lambda f: (f.path, f.line, f.col, f.message))

    def _emit_taint(
        self, tok: tuple, sink_desc: str, at: str, seen: set[tuple]
    ) -> None:
        kind, path, line, desc = tok
        rule = "DETFLOW001" if kind == "nondet" else "DETFLOW002"
        key = (rule, path, line, sink_desc)
        if key in seen:
            return
        seen.add(key)
        noun = "nondeterministic value" if kind == "nondet" else "set-iteration order"
        self.findings[rule].append(
            Finding(
                rule=rule,
                path=path,
                line=line,
                col=0,
                message=(
                    f"{noun} from {desc} flows into determinism sink "
                    f"{sink_desc} ({at}); replayed payloads and cache keys "
                    "must be pure functions of (config, seed)"
                ),
                context=self.index.source_line(path, line),
            )
        )

    def _taint_findings(
        self, qualname: str, ir: dict, env: dict[str, set[tuple]], seen: set[tuple]
    ) -> None:
        # Concrete taint reaching the return of a sink-marked function.
        if self._marked(qualname, "sink", "determinism"):
            for tok in env.get("ret", set()):
                if tok[0] in _CONCRETE:
                    self._emit_taint(
                        tok, f"{qualname}()", f"reaches its return", seen
                    )
        # Concrete taint in an argument position that reaches a sink.
        for call in ir["calls"]:
            for q in call["refs"]:
                sink_params = self._sink_param_names(q)
                if not sink_params:
                    continue
                callee_ir = self.irs.get(q)
                if callee_ir is None:
                    continue
                pmap = self._map_args(call, callee_ir, env)
                for sp, desc in sink_params.items():
                    for tok in pmap.get(sp, set()):
                        if tok[0] in _CONCRETE:
                            self._emit_taint(
                                tok,
                                desc,
                                f"via {call['repr']}() at "
                                f"{ir['path']}:{call['line']}",
                                seen,
                            )

    def _resource_findings(self, qualname: str, ir: dict) -> None:
        if not ir["res"]["acquires"] and not ir["res"]["terminates"]:
            return
        cfg = self.index.cfg(self.index.functions[qualname])
        params = set(ir["params"]["pos"] + ir["params"]["kwonly"])
        by_var_sinks: dict[str, set[int]] = {}

        def sinks_for(var: str) -> set[int]:
            if var in by_var_sinks:
                return by_var_sinks[var]
            sinks: set[int] = set()
            for rec in ir["res"]["releases"]:
                if rec["var"] == var:
                    sinks.update(rec["node_ids"])
            for rec in ir["res"]["escapes"]:
                if rec["var"] == var:
                    sinks.update(rec["node_ids"])
            for rec in ir["res"]["callpass"]:
                if rec["var"] != var:
                    continue
                for q in rec["refs"]:
                    callee = self.summaries.get(q)
                    callee_ir = self.irs.get(q)
                    if callee is None or callee_ir is None:
                        sinks.update(rec["node_ids"])
                        continue
                    target = _callpass_target(rec, callee_ir)
                    if target is not None and (
                        target in callee.releases or target in callee.stores
                    ):
                        sinks.update(rec["node_ids"])
            by_var_sinks[var] = sinks
            return sinks

        for acq in ir["res"]["acquires"]:
            if acq["var"] in params:
                continue  # the caller owns handles it passed in
            rule = "RES002" if acq["kind"] == "tmpfile" else "RES001"
            count_exc = acq["kind"] != "tmpfile"
            sinks = sinks_for(acq["var"])
            violation = None
            for node in acq["node_ids"]:
                violation = find_unprotected_path(
                    cfg, node, sinks, count_exception_paths=count_exc
                )
                if violation is not None:
                    break
            if violation is None:
                continue
            where = cfg.describe_path(violation)
            if rule == "RES001":
                message = (
                    f"{acq['desc']} `{acq['var']}` acquired here can leak: "
                    f"a path ({where}) reaches "
                    f"{'a raise or ' if count_exc else ''}function exit "
                    f"without .close()/.join(), an ownership transfer, or a "
                    f"with-block"
                )
            else:
                message = (
                    f"tmp file `{acq['var']}` written here is not published "
                    f"or removed on a normal path ({where}); atomic "
                    f"publication requires os.replace()/unlink() before exit "
                    f"(exception paths are excused by the stale-tmp sweep)"
                )
            self.findings[rule].append(
                Finding(
                    rule=rule,
                    path=ir["path"],
                    line=acq["line"],
                    col=acq["col"],
                    message=message,
                    context=acq["context"],
                )
            )
        # terminate()/kill() must be followed by join() on the same
        # receiver: a signalled worker still needs reaping.
        join_nodes: dict[str, set[int]] = {}
        for rec in ir["res"]["joins"]:
            join_nodes.setdefault(rec["recv"], set()).update(rec["node_ids"])
        for rec in ir["res"]["terminates"]:
            sinks = join_nodes.get(rec["recv"], set())
            violation = None
            for node in rec["node_ids"]:
                violation = find_unprotected_path(cfg, node, sinks)
                if violation is not None:
                    break
            if violation is None:
                continue
            self.findings["RES001"].append(
                Finding(
                    rule="RES001",
                    path=ir["path"],
                    line=rec["line"],
                    col=rec["col"],
                    message=(
                        f"{rec['recv']}.{rec['word']}() is not followed by "
                        f"{rec['recv']}.join() on every path "
                        f"({cfg.describe_path(violation)}); a signalled "
                        "worker must still be reaped"
                    ),
                    context=rec["context"],
                )
            )


def _callpass_target(rec: dict, callee_ir: dict) -> str | None:
    """The callee parameter name a callpass record's argument binds to."""
    params = callee_ir["params"]
    pos_params = list(params["pos"])
    offset = 1 if rec["bound"] and callee_ir["cls"] is not None else 0
    if rec["kw"] is not None:
        if rec["kw"] in pos_params or rec["kw"] in params["kwonly"]:
            return rec["kw"]
        return params["kwarg"]
    idx = rec["pos"] + offset if rec["pos"] is not None else None
    if idx is not None:
        if idx < len(pos_params):
            return pos_params[idx]
        return params["vararg"]
    return None


def _scc_order(graph: dict[str, list[str]]) -> list[list[str]]:
    """Tarjan SCCs of the call graph, callees-first (reverse topological),
    iteratively (no recursion limit surprises on deep call chains)."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index_of:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = [c for c in graph.get(node, []) if c in graph]
            if child_i < len(children):
                work[-1] = (node, child_i + 1)
                child = children[child_i]
                if child not in index_of:
                    work.append((child, 0))
                elif child in on_stack:
                    low[node] = min(low[node], index_of[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    sccs.append(sorted(scc))
    return sccs  # Tarjan emits callees before callers


# -- entry points -------------------------------------------------------------


def get_dataflow(index: ProjectIndex) -> ProjectDataflow:
    """The (memoized) solved analysis for ``index``."""
    analysis = getattr(index, "_dataflow", None)
    if analysis is None:
        analysis = index._dataflow = ProjectDataflow(index)  # type: ignore[attr-defined]
    return analysis


class _DataflowRule(WholeProgramRule):
    def run(self, index: ProjectIndex) -> list[Finding]:
        return list(get_dataflow(index).findings[self.name])


@register_whole_program_rule
class NondetReachesSinkRule(_DataflowRule):
    """DETFLOW001: a nondeterministic **value** reaches a determinism sink.

    Sources: wall clocks (``time.time``/``perf_counter``/...), OS entropy
    (``os.urandom``, ``secrets.*``, unseeded ``random.Random()`` /
    ``np.random.default_rng()``), process identity (``os.getpid``,
    ``id()``), ``uuid.uuid1/4``, ``datetime.now``. Sinks: functions
    marked ``# dataflow: sink[determinism]`` — the fleet's ``job_key``,
    ``to_dict`` payloads with a replay contract, the trace ring's
    ``_record``.

    Sanctioned wrappers (``# dataflow: sanitizes[nondet]``): the virtual
    clock ``repro.trace.clock.TraceClock`` — virtual timestamps are
    deterministic by construction; derive timing from it, never from
    ``time.*``. Stable digests (``zlib.crc32``, ``hashlib.*``) of
    deterministic inputs are also fine — they carry no taint because
    their inputs carry none.

    Suppress a deliberate flow with
    ``# lint: allow[DETFLOW001] -- why`` on the source line.
    """

    name = "DETFLOW001"
    description = (
        "nondeterministic value (clock/entropy/pid) flows into a "
        "determinism sink (job keys, replayed payloads, the trace ring)"
    )


@register_whole_program_rule
class OrderTaintReachesSinkRule(_DataflowRule):
    """DETFLOW002: set-iteration **order** reaches a determinism sink.

    Folding iteration over a ``set``/``frozenset`` expression into a
    list, string, or accumulator bakes ``PYTHONHASHSEED``-dependent order
    into the value; if that value then lands in a ``sink[determinism]``
    function the replay contract breaks even though every *element* is
    deterministic.

    Sanctioned wrapper: ``sorted(...)`` at the point of iteration — it
    kills order taint (and is what DET002 already demands syntactically;
    this rule catches the flows DET002's single-expression window
    cannot see). Suppress with ``# lint: allow[DETFLOW002] -- why``.
    """

    name = "DETFLOW002"
    description = (
        "unordered-set iteration order flows into a determinism sink; "
        "wrap the iteration in sorted(...)"
    )


@register_whole_program_rule
class HandleLeakRule(_DataflowRule):
    """RES001: an acquired handle may leak on some CFG path.

    Acquires: pipe ends bound to locals — from a bare ``Pipe`` alias or
    any ``<expr>.Pipe(...)`` (``multiprocessing.Pipe()``,
    ``self._ctx.Pipe()``) — and ``x: Connection = ...`` locals, a
    ``Process`` local that gets ``.start()``-ed, a bare ``open()`` bound
    to a local outside ``with``. Every acquire must, on **all** paths —
    raise edges included — reach a release (``.close()``/``.join()``), an
    ownership transfer (returned, stored on an attribute, handed to an
    unknown callee or to a callee whose summary releases/stores that
    parameter), or be managed by ``with``. This is the only rule that
    proves a pipe end is closed; ``PIPE001`` keeps the Process-target
    parameters RES001 cannot see.

    The same rule checks reaping: every ``.terminate()``/``.kill()``
    must be followed by ``.join()`` on the same receiver on every normal
    path — the worker pool's SIGTERM -> SIGKILL escalation stays honest
    because both signals funnel into a ``join()``.

    Sanctioned patterns: ``with`` blocks; storing the handle on ``self``
    at acquisition (the object's ``close()`` owns it from then on).
    Suppress with ``# lint: allow[RES001] -- why`` on the acquire line.
    """

    name = "RES001"
    description = (
        "acquired handle (pipe/process/file) can reach function exit "
        "or a raise without close/join/ownership-transfer"
    )


@register_whole_program_rule
class TmpFilePublishRule(_DataflowRule):
    """RES002: a ``.tmp`` file must be published or removed on every
    normal path.

    A path whose name contains ``.tmp`` that gets written (``open(tmp,
    'w')``, ``tmp.write_text(...)``) is an atomic-publication intermediate:
    every normal path afterwards must hit ``os.replace(tmp, final)`` (the
    crash-safe publish), ``tmp.rename()``, or ``tmp.unlink()``. Exception
    paths are deliberately excused — the fleet cache's documented
    stale-tmp sweep (``ResultCache.put`` globs ``<key>.tmp.*`` after every
    publish) reclaims leftovers from crashed writers, and this rule is
    the static proof that the sweep discipline and the normal-path
    publish discipline line up.

    Suppress with ``# lint: allow[RES002] -- why`` on the write line.
    """

    name = "RES002"
    description = (
        "tmp file written for atomic publication can exit without "
        "os.replace()/unlink() on a normal path"
    )

"""Project-wide indexer + conservative call graph for whole-program lint.

The whole-program rules (:mod:`repro.lint.rules_protocol`) need three
things no single-file AST can give them:

1. **who defines what** — every module-level function and method in the
   linted set, with its protocol markers
   (``# protocol: mutates[tlb-generation] -- why``);
2. **who calls whom** — each call site resolved to the set of functions
   it may dispatch to;
3. **who calls me** — the reverse edges, which the one call-graph
   fixpoint (:meth:`ProjectIndex.least_fixpoint`) follows.

Call resolution is deliberately conservative and type-driven.  A tiny
flow-insensitive inferencer types receivers from parameter annotations,
``self``, attribute types gathered from class bodies and ``__init__``
assignments, constructor calls, return annotations, and loop unpacking
over annotated containers (``for tlb, mmu in self.cores`` with
``cores: list[tuple[TlbHierarchy, MmuCaches]]``).  A typed receiver
resolves through the class hierarchy (the method in the class, its
ancestors, and — virtual dispatch — its subclasses).  An untyped call
falls back to a *unique project-wide basename* match; an ambiguous name
(``flush`` exists on ``Tlb``, ``TlbHierarchy``, file objects, ...)
resolves to nothing rather than to everything, so protocol obligations
are only created where we actually know the callee.

Protocol markers attach to a ``def`` — trailing on the ``def`` line or
on comment lines directly above it (above the decorators, if any)::

    # protocol: defers[tlb-generation] -- caller owns the generation bump
    def invalidate(self, va: int) -> None: ...

Verbs: ``mutates[k]`` (this function must settle ``k`` on every
non-exception path), ``begins[k]``/``defers[k]`` (every *call site*
acquires the obligation), ``settles[k]``/``ends[k]`` (calling this is a
sink that discharges the obligation).

The dataflow layer (:mod:`repro.lint.dataflow`) reuses the same grammar
under the ``# dataflow:`` prefix with three role verbs:
``source[nondet]`` (calling this yields a nondeterministic value),
``sink[determinism]`` (values flowing into this call or out of its
return must be deterministic), and ``sanitizes[nondet]`` (a sanctioned
wrapper — e.g. the virtual clock — whose result is deterministic by
contract even though it smells like time). Both prefixes parse into the
same :class:`Marker` records.

The concurrency layer (:mod:`repro.lint.concurrency`) adds two more
pieces of vocabulary:

* ``sends[k]``/``receives[k]`` verbs (usually under the ``# protocol:``
  prefix) declare the two halves of a cross-process message protocol —
  the pool's ``sends[job]`` must have a ``receives[job]`` peer somewhere
  in the linted project, extending the PR-5 pairing discipline across
  the process boundary;
* bracket-less **flags** — ``# concurrency: not-fork-inheritable`` on a
  class whose instances hold live OS state (open pipes, file handles)
  that must not be captured by a ``Process(target=...)`` closure, and
  ``# concurrency: signal-safe`` on a function adjudicated safe to call
  from a signal handler. Flags attach to a ``def`` *or* ``class`` line
  exactly like markers and land in ``FunctionInfo.flags`` /
  ``ClassInfo.flags``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.lint.core import Finding, ParsedModule
from repro.lint.flow import Cfg, build_cfg, executed_exprs, iter_statements

_MARKER_RE = re.compile(
    r"#\s*(?:protocol|dataflow|concurrency):\s*"
    r"(?P<verb>mutates|begins|defers|settles|ends|source|sink|sanitizes"
    r"|sends|receives)"
    r"\[(?P<keys>[A-Za-z0-9_\-,\s]+)\]"
    r"(?:\s*--\s*(?P<why>\S.*))?"
)

#: Bracket-less concurrency flags on a ``def`` or ``class`` line (or the
#: comment lines directly above): adjudicated facts, not obligations.
_FLAG_RE = re.compile(
    r"#\s*concurrency:\s*(?P<flag>not-fork-inheritable|signal-safe)"
    r"(?:\s*--\s*(?P<why>\S.*))?"
)

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Annotation heads treated as homogeneous iterables of their element.
_SEQ_HEADS = frozenset(
    {
        "list", "List", "set", "Set", "frozenset", "FrozenSet",
        "Iterable", "Iterator", "Sequence", "Collection", "deque",
    }
)
_DICT_HEADS = frozenset({"dict", "Dict", "Mapping", "MutableMapping"})


@dataclass(frozen=True)
class Marker:
    """One parsed ``# protocol:`` annotation on a function."""

    #: mutates | begins | defers | settles | ends | source | sink |
    #: sanitizes | sends | receives
    verb: str
    key: str
    lineno: int


@dataclass
class CallSite:
    """One resolved (or unresolved) call inside a function."""

    call: ast.Call
    stmt: ast.stmt  # innermost enclosing statement = the CFG anchor
    callee_repr: str  # source text of the callee, for messages
    resolutions: tuple[str, ...]  # FunctionInfo qualnames; () = unknown


@dataclass
class FunctionInfo:
    """One module-level function or method in the linted project."""

    qualname: str  # "repro.tlb.tlb:TlbHierarchy.flush"
    module: str
    path: str
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    markers: list[Marker] = field(default_factory=list)
    #: Concurrency flags (``signal-safe``, ...) on the def line.
    flags: set[str] = field(default_factory=set)
    calls: list[CallSite] = field(default_factory=list)

    @property
    def lineno(self) -> int:
        return self.node.lineno

    def marked(self, verb: str, key: str) -> bool:
        return any(m.verb == verb and m.key == key for m in self.markers)

    def marker_keys(self, *verbs: str) -> set[str]:
        return {m.key for m in self.markers if m.verb in verbs}


@dataclass
class ClassInfo:
    """One top-level class: bases, methods, inferred attribute types."""

    qualname: str
    name: str
    module: str
    path: str
    bases: list[str]  # simple base-class names
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: dict[str, tuple] = field(default_factory=dict)
    #: Concurrency flags (``not-fork-inheritable``, ...) on the class line.
    flags: set[str] = field(default_factory=set)


@dataclass
class ProjectIndex:
    """Everything the whole-program rules know about the linted files."""

    modules: list[ParsedModule]
    modules_by_path: dict[str, ParsedModule] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    class_by_name: dict[str, list[ClassInfo]] = field(default_factory=dict)
    by_basename: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    #: callee qualname -> every (caller, call site) targeting it.
    callers: dict[str, list[tuple[FunctionInfo, CallSite]]] = field(
        default_factory=dict
    )
    #: qualname -> CFG, built on first use and shared by every rule.
    cfgs: dict[str, Cfg] = field(default_factory=dict)

    def cfg(self, fn: FunctionInfo) -> Cfg:
        cfg = self.cfgs.get(fn.qualname)
        if cfg is None:
            cfg = self.cfgs[fn.qualname] = build_cfg(fn.node)
        return cfg

    # -- class hierarchy -----------------------------------------------------

    def _unique_class(self, name: str) -> ClassInfo | None:
        infos = self.class_by_name.get(name, [])
        return infos[0] if len(infos) == 1 else None

    def ancestors(self, name: str) -> set[str]:
        out: set[str] = set()
        frontier = [name]
        while frontier:
            info = self._unique_class(frontier.pop())
            if info is None:
                continue
            for base in info.bases:
                if base not in out:
                    out.add(base)
                    frontier.append(base)
        return out

    def descendants(self, name: str) -> set[str]:
        children: dict[str, set[str]] = {}
        for infos in self.class_by_name.values():
            for info in infos:
                for base in info.bases:
                    children.setdefault(base, set()).add(info.name)
        out: set[str] = set()
        frontier = [name]
        while frontier:
            for child in children.get(frontier.pop(), ()):
                if child not in out:
                    out.add(child)
                    frontier.append(child)
        return out

    def method_candidates(self, class_name: str, method: str) -> list[FunctionInfo]:
        """Possible targets of ``obj.method()`` with ``obj: class_name`` —
        the method as defined on the class, any ancestor, or any subclass
        (virtual dispatch)."""
        names = {class_name} | self.ancestors(class_name) | self.descendants(class_name)
        found: list[FunctionInfo] = []
        for name in sorted(names):
            info = self._unique_class(name)
            if info is not None and method in info.methods:
                found.append(info.methods[method])
        return found

    # -- call-graph fixpoint ------------------------------------------------

    def least_fixpoint(
        self,
        seeds: Iterable[str],
        joins: Callable[[FunctionInfo, set[str]], bool],
    ) -> set[str]:
        """The least set of qualnames holding ``seeds`` and every function
        for which ``joins(fn, members)`` is true.

        ``joins`` must be monotone and may read ``members`` only through
        ``fn``'s callees ("every path hits a sink, counting calls to
        members", "some call reaches a member"). Every function is
        checked once; when one joins, only its callers are re-checked.
        """
        members = set(seeds)
        pending = [q for q in self.functions if q not in members]
        queued = set(pending)
        while pending:
            qualname = pending.pop()
            queued.discard(qualname)
            if qualname in members or not joins(self.functions[qualname], members):
                continue
            members.add(qualname)
            for caller, _ in self.callers.get(qualname, ()):
                if caller.qualname not in members and caller.qualname not in queued:
                    queued.add(caller.qualname)
                    pending.append(caller.qualname)
        return members

    @staticmethod
    def calls_member(fn: FunctionInfo, members: set[str]) -> bool:
        """The caller closure's ``joins``: some call in ``fn`` may reach a
        member."""
        return any(q in members for site in fn.calls for q in site.resolutions)

    # -- findings ------------------------------------------------------------

    def source_line(self, path: str, line: int) -> str:
        """The stripped source line: a finding's baseline context."""
        parsed = self.modules_by_path.get(path)
        if parsed is not None and 1 <= line <= len(parsed.source_lines):
            return parsed.source_lines[line - 1].strip()
        return ""

    def finding(
        self, rule: str, fn: FunctionInfo, anchor: ast.AST, message: str
    ) -> Finding:
        """A finding in ``fn`` at ``anchor``'s line (the def line when the
        anchor has none), its message prefixed with ``fn``'s qualname."""
        line = getattr(anchor, "lineno", fn.lineno)
        return Finding(
            rule=rule,
            path=fn.path,
            line=line,
            col=getattr(anchor, "col_offset", 0),
            message=f"{fn.qualname}: {message}",
            context=self.source_line(fn.path, line),
        )


# -- annotation parsing -------------------------------------------------------
# Type reprs are tiny tuples: ("class", name) | ("seq", elem) |
# ("tuple", (elems...)) | ("dict", (key, value)); None = unknown.


def _is_none_expr(expr: ast.AST) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is None


def parse_annotation(expr: ast.AST | None) -> tuple | None:
    if expr is None:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        try:
            expr = ast.parse(expr.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(expr, ast.Name):
        return ("class", expr.id)
    if isinstance(expr, ast.Attribute):
        return ("class", expr.attr)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        if _is_none_expr(expr.right):
            return parse_annotation(expr.left)
        if _is_none_expr(expr.left):
            return parse_annotation(expr.right)
        return None  # a genuine union: refuse to guess
    if isinstance(expr, ast.Subscript):
        head = expr.value
        head_name = (
            head.id
            if isinstance(head, ast.Name)
            else head.attr
            if isinstance(head, ast.Attribute)
            else None
        )
        inner = expr.slice
        if head_name == "Optional":
            return parse_annotation(inner)
        if head_name in _SEQ_HEADS:
            return ("seq", parse_annotation(inner))
        if head_name in ("tuple", "Tuple"):
            if isinstance(inner, ast.Tuple):
                return ("tuple", tuple(parse_annotation(e) for e in inner.elts))
            return ("seq", parse_annotation(inner))
        if head_name in _DICT_HEADS and isinstance(inner, ast.Tuple):
            if len(inner.elts) == 2:
                return (
                    "dict",
                    (
                        parse_annotation(inner.elts[0]),
                        parse_annotation(inner.elts[1]),
                    ),
                )
        return None
    return None


def _element_type(container: tuple | None) -> tuple | None:
    if container is None:
        return None
    kind = container[0]
    if kind == "seq":
        return container[1]
    if kind == "dict":
        return container[1][0]  # iterating a dict yields keys
    return None


# -- index construction -------------------------------------------------------


def _annotation_lines(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
    source_lines: list[str],
) -> list[int]:
    """The def/class line plus comment lines directly above it (above the
    decorators, if any) — where markers and flags may sit."""
    lines_to_scan: list[int] = [node.lineno]
    first = min([d.lineno for d in node.decorator_list] + [node.lineno])
    lineno = first - 1
    while 1 <= lineno <= len(source_lines):
        text = source_lines[lineno - 1].strip()
        if not text.startswith("#"):
            break
        lines_to_scan.append(lineno)
        lineno -= 1
    return [n for n in lines_to_scan if 1 <= n <= len(source_lines)]


def _collect_markers(
    node: ast.FunctionDef | ast.AsyncFunctionDef, source_lines: list[str]
) -> list[Marker]:
    """Markers on the def line or comment lines directly above it (above
    the decorators, if any)."""
    markers: list[Marker] = []
    for lineno in _annotation_lines(node, source_lines):
        match = _MARKER_RE.search(source_lines[lineno - 1])
        if match is None:
            continue
        for key in match.group("keys").split(","):
            key = key.strip()
            if key:
                markers.append(
                    Marker(verb=match.group("verb"), key=key, lineno=lineno)
                )
    return markers


def _collect_flags(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
    source_lines: list[str],
) -> set[str]:
    """Concurrency flags on the def/class line or the comments above."""
    flags: set[str] = set()
    for lineno in _annotation_lines(node, source_lines):
        match = _FLAG_RE.search(source_lines[lineno - 1])
        if match is not None:
            flags.add(match.group("flag"))
    return flags


class _Typer:
    """Flow-insensitive local type environment for one function."""

    def __init__(self, index: ProjectIndex, fn: FunctionInfo):
        self.index = index
        self.fn = fn
        self.env: dict[str, tuple | None] = {}
        if fn.cls is not None:
            self.env["self"] = ("class", fn.cls)
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                self.env[arg.arg] = parse_annotation(arg.annotation)
        for stmt in iter_statements(fn.node):
            self._learn(stmt)

    def _learn(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            self.env[stmt.target.id] = parse_annotation(stmt.annotation)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                inferred = self.infer(stmt.value)
                if inferred is not None:
                    self.env[target.id] = inferred
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, _element_type(self.infer(stmt.iter)))

    def _bind(self, target: ast.AST, value_type: tuple | None) -> None:
        if value_type is None:
            return
        if isinstance(target, ast.Name):
            self.env[target.id] = value_type
        elif isinstance(target, ast.Tuple) and value_type[0] == "tuple":
            elems = value_type[1]
            if len(target.elts) == len(elems):
                for elt, elem_type in zip(target.elts, elems):
                    self._bind(elt, elem_type)

    def infer(self, expr: ast.AST) -> tuple | None:
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.infer(expr.value)
            if base is not None and base[0] == "class":
                info = self.index._unique_class(base[1])
                if info is not None:
                    direct = info.attr_types.get(expr.attr)
                    if direct is not None:
                        return direct
                    for ancestor in self.index.ancestors(base[1]):
                        anc = self.index._unique_class(ancestor)
                        if anc is not None and expr.attr in anc.attr_types:
                            return anc.attr_types[expr.attr]
            return None
        if isinstance(expr, ast.Subscript):
            return _element_type(self.infer(expr.value))
        if isinstance(expr, ast.Tuple):
            return ("tuple", tuple(self.infer(e) for e in expr.elts))
        if isinstance(expr, ast.Call):
            return self._infer_call(expr)
        if isinstance(expr, ast.IfExp):
            return self.infer(expr.body) or self.infer(expr.orelse)
        return None

    def _infer_call(self, call: ast.Call) -> tuple | None:
        func = call.func
        if isinstance(func, ast.Name):
            if self.index._unique_class(func.id) is not None:
                return ("class", func.id)
            target = _unique_basename(self.index, func.id, self.fn.module)
            if target is not None:
                return parse_annotation(target.node.returns)
            return None
        if isinstance(func, ast.Attribute):
            receiver = self.infer(func.value)
            if receiver is not None and receiver[0] == "class":
                for cand in self.index.method_candidates(receiver[1], func.attr):
                    inferred = parse_annotation(cand.node.returns)
                    if inferred is not None:
                        return inferred
        return None


def _unique_basename(
    index: ProjectIndex, name: str, module: str
) -> FunctionInfo | None:
    """Module-level function ``name`` in ``module`` if defined there, else
    the unique project-wide function with that basename."""
    local = index.functions.get(f"{module}:{name}")
    if local is not None:
        return local
    infos = index.by_basename.get(name, [])
    return infos[0] if len(infos) == 1 else None


def _resolve_call(
    index: ProjectIndex, typer: _Typer, fn: FunctionInfo, call: ast.Call
) -> tuple[str, tuple[str, ...]]:
    func = call.func
    repr_text = ast.unparse(func)
    if isinstance(func, ast.Name):
        if index._unique_class(func.id) is not None:
            return repr_text, ()  # constructor; not a protocol participant
        target = _unique_basename(index, func.id, fn.module)
        return repr_text, (target.qualname,) if target is not None else ()
    if isinstance(func, ast.Attribute):
        # super().method(...) -> the method on an ancestor.
        if (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and fn.cls is not None
        ):
            found = [
                info.methods[func.attr]
                for name in sorted(index.ancestors(fn.cls))
                if (info := index._unique_class(name)) is not None
                and func.attr in info.methods
            ]
            return repr_text, tuple(f.qualname for f in found)
        receiver = typer.infer(func.value)
        if receiver is not None and receiver[0] == "class":
            if index._unique_class(receiver[1]) is not None:
                found = index.method_candidates(receiver[1], func.attr)
                return repr_text, tuple(f.qualname for f in found)
        infos = index.by_basename.get(func.attr, [])
        if len(infos) == 1:
            return repr_text, (infos[0].qualname,)
        return repr_text, ()
    return repr_text, ()


def build_index(modules: list[ParsedModule]) -> ProjectIndex:
    """Three passes: declarations, attribute types, call resolution."""
    index = ProjectIndex(modules=list(modules))

    # Pass 1: functions, methods, classes, markers.
    for parsed in modules:
        index.modules_by_path[parsed.path] = parsed
        for node in parsed.tree.body:
            if isinstance(node, _FUNC_TYPES):
                _add_function(index, parsed, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                bases = [
                    b.id
                    if isinstance(b, ast.Name)
                    else b.attr
                    if isinstance(b, ast.Attribute)
                    else ""
                    for b in node.bases
                ]
                cls_info = ClassInfo(
                    qualname=f"{parsed.module}:{node.name}",
                    name=node.name,
                    module=parsed.module,
                    path=parsed.path,
                    bases=[b for b in bases if b],
                    flags=_collect_flags(node, parsed.source_lines),
                )
                index.classes[cls_info.qualname] = cls_info
                index.class_by_name.setdefault(node.name, []).append(cls_info)
                for item in node.body:
                    if isinstance(item, _FUNC_TYPES):
                        fn = _add_function(index, parsed, item, cls=node.name)
                        cls_info.methods[item.name] = fn

    # Pass 2: attribute types (class-level annotations + self.x assignments).
    for parsed in modules:
        for node in parsed.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            infos = index.class_by_name.get(node.name, [])
            cls_info = next((c for c in infos if c.path == parsed.path), None)
            if cls_info is None:
                continue
            _collect_attr_types(index, cls_info, node)

    # Pass 3: call sites, resolved with the full index available.
    for fn in index.functions.values():
        typer = _Typer(index, fn)
        for stmt in iter_statements(fn.node):
            for root in executed_exprs(stmt):
                if root is None:
                    continue
                for sub in ast.walk(root):
                    if isinstance(sub, ast.Call):
                        repr_text, resolutions = _resolve_call(
                            index, typer, fn, sub
                        )
                        fn.calls.append(
                            CallSite(
                                call=sub,
                                stmt=stmt,
                                callee_repr=repr_text,
                                resolutions=resolutions,
                            )
                        )
    for fn in index.functions.values():
        for site in fn.calls:
            for qualname in site.resolutions:
                index.callers.setdefault(qualname, []).append((fn, site))
    return index


def _add_function(
    index: ProjectIndex,
    parsed: ParsedModule,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    cls: str | None,
) -> FunctionInfo:
    scope = f"{cls}." if cls else ""
    fn = FunctionInfo(
        qualname=f"{parsed.module}:{scope}{node.name}",
        module=parsed.module,
        path=parsed.path,
        cls=cls,
        name=node.name,
        node=node,
        markers=_collect_markers(node, parsed.source_lines),
        flags=_collect_flags(node, parsed.source_lines),
    )
    index.functions[fn.qualname] = fn
    index.by_basename.setdefault(node.name, []).append(fn)
    return fn


def _collect_attr_types(
    index: ProjectIndex, cls_info: ClassInfo, node: ast.ClassDef
) -> None:
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            inferred = parse_annotation(item.annotation)
            if inferred is not None:
                cls_info.attr_types[item.target.id] = inferred
    for method in cls_info.methods.values():
        for stmt in iter_statements(method.node):
            target = None
            inferred = None
            if isinstance(stmt, ast.AnnAssign):
                target, inferred = stmt.target, parse_annotation(stmt.annotation)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                inferred = _infer_ctor_or_param(index, method, stmt.value)
            if (
                target is not None
                and inferred is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in cls_info.attr_types
            ):
                cls_info.attr_types[target.attr] = inferred


def _infer_ctor_or_param(
    index: ProjectIndex, method: FunctionInfo, value: ast.AST
) -> tuple | None:
    """``self.x = SomeClass(...)`` or ``self.x = annotated_param``."""
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and index._unique_class(value.func.id) is not None
    ):
        return ("class", value.func.id)
    if isinstance(value, ast.Name):
        args = method.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg == value.id and arg.annotation is not None:
                return parse_annotation(arg.annotation)
    return None

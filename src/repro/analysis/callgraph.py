"""Conservative cross-module call graph over the shared syntax trees.

The per-file rules in :mod:`repro.analysis.rules` see one module at a
time, but every hard bug PRs 3–6 fixed was *inter-procedural*: a
blocking call reached through two frames from an ``async def``, a
lock-carrying object pickled into a pool worker.  This module builds
the whole-program structure those checks need:

* an index of every function/method/class in the linted
  :class:`~repro.analysis.base.Project`, keyed by a stable qualname
  (``<dotted.module>::Class.method``);
* call edges between them, resolved through the existing import-alias
  machinery (:func:`~repro.analysis.base.import_table`), with method
  dispatch only on receivers whose class is actually inferable (a
  constructor assignment, a parameter annotation, or a ``self.attr``
  assignment) — never by bare attribute name, which would drown the
  dataflow rules in false edges;
* executor boundaries: ``executor.submit(fn, ...)``,
  ``loop.run_in_executor(pool, fn, ...)`` and pool ``initializer=``
  targets become edges tagged ``offthread=True`` so on-loop
  reachability (the transitive-blocking rule) can skip them while
  lock/pickle analyses still see them.

Resolution is deliberately *under*-approximate for receivers (an
uninferable ``obj.m()`` resolves to nothing) and exact for names: a
reported chain is therefore always a real syntactic path, which is what
lets the dataflow rules run with zero findings on a clean tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.base import Project, SourceFile, import_table, resolve_name

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "CallEdge",
    "CallGraph",
    "callgraph",
]


def module_key(path: str) -> str:
    """Dotted module name derived from a file path (best effort).

    ``src/repro/fleet/worker.py`` → ``src.repro.fleet.worker``; package
    ``__init__.py`` files collapse onto the package.  Cross-module
    lookups match on the dotted *suffix*, so the leading ``src`` (or an
    absolute prefix) never has to be stripped exactly.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part not in ("/", "\\", ""))


@dataclass
class FunctionInfo:
    """One function or method definition in the linted set."""

    qualname: str
    name: str
    cls: Optional[str]  # immediate enclosing class name, if a method
    source: SourceFile
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    is_async: bool

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition plus what the dataflow rules need from it."""

    name: str
    source: SourceFile
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.X = <value>`` assignments anywhere in the class's methods
    attr_values: Dict[str, List[ast.expr]] = field(default_factory=dict)
    #: class-body ``name: annotation`` fields (dataclass-style)
    field_annotations: Dict[str, ast.expr] = field(default_factory=dict)
    #: class-body ``name: ... = <value>`` defaults
    field_defaults: Dict[str, ast.expr] = field(default_factory=dict)

    def defines_custom_pickling(self) -> bool:
        return any(
            name in self.methods
            for name in ("__reduce__", "__reduce_ex__", "__getstate__")
        )


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: ``caller`` invokes ``callee`` at ``line``.

    ``offthread`` marks executor boundaries (``submit`` /
    ``run_in_executor`` / pool initializers): the callee runs, but not
    on the caller's thread or event loop.
    """

    caller: str
    callee: str
    line: int
    offthread: bool = False


#: Executor constructors whose ``submit`` crosses a process boundary.
PROCESS_POOL_CTORS = {
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.Pool",
}

#: Executor constructors whose ``submit`` stays in-process (threads).
THREAD_POOL_CTORS = {
    "concurrent.futures.ThreadPoolExecutor",
}

_EXECUTOR_CTORS = PROCESS_POOL_CTORS | THREAD_POOL_CTORS


class CallGraph:
    """Whole-project function index + conservative call edges."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.edges: Dict[str, List[CallEdge]] = {}
        self._tables: Dict[str, Dict[str, str]] = {}
        self._module_functions: Dict[str, Dict[str, FunctionInfo]] = {}
        self._function_of_node: Dict[int, FunctionInfo] = {}
        self._build()

    # ------------------------------------------------------------------
    # indexing

    def _build(self) -> None:
        for source in self.project.parsed():
            self._tables[source.path] = import_table(source.tree)
            self._index_source(source)
        for info in self.functions.values():
            self.edges[info.qualname] = self._edges_from(info)

    def _index_source(self, source: SourceFile) -> None:
        key = module_key(source.path)
        module_funcs = self._module_functions.setdefault(key, {})

        def visit(node: ast.AST, scope: Tuple[str, ...], cls: Optional[ClassInfo]):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{key}::" + ".".join(scope + (child.name,))
                    info = FunctionInfo(
                        qualname=qual,
                        name=child.name,
                        cls=cls.name if cls is not None else None,
                        source=source,
                        node=child,
                        is_async=isinstance(child, ast.AsyncFunctionDef),
                    )
                    self.functions[qual] = info
                    self._function_of_node[id(child)] = info
                    if cls is not None and len(scope) >= 1:
                        cls.methods.setdefault(child.name, info)
                    if not scope:
                        module_funcs[child.name] = info
                    visit(child, scope + (child.name,), None)
                elif isinstance(child, ast.ClassDef):
                    cinfo = ClassInfo(name=child.name, source=source, node=child)
                    cinfo.bases = [self._base_name(b) for b in child.bases]
                    self._index_class_body(cinfo)
                    self.classes.setdefault(child.name, []).append(cinfo)
                    visit(child, scope + (child.name,), cinfo)
                else:
                    visit(child, scope, cls)

        visit(source.tree, (), None)
        for cls_list in self.classes.values():
            for cinfo in cls_list:
                if cinfo.source is source:
                    self._collect_attr_values(cinfo)

    @staticmethod
    def _base_name(base: ast.expr) -> str:
        if isinstance(base, ast.Name):
            return base.id
        if isinstance(base, ast.Attribute):
            return base.attr
        return ""

    @staticmethod
    def _index_class_body(cinfo: ClassInfo) -> None:
        for stmt in cinfo.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                cinfo.field_annotations[stmt.target.id] = stmt.annotation
                if stmt.value is not None:
                    cinfo.field_defaults[stmt.target.id] = stmt.value
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        cinfo.field_defaults[target.id] = stmt.value

    @staticmethod
    def _collect_attr_values(cinfo: ClassInfo) -> None:
        for node in ast.walk(cinfo.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cinfo.attr_values.setdefault(target.attr, []).append(value)
                    if isinstance(node, ast.AnnAssign):
                        cinfo.field_annotations.setdefault(
                            target.attr, node.annotation
                        )

    # ------------------------------------------------------------------
    # lookups

    def table(self, source: SourceFile) -> Dict[str, str]:
        return self._tables.get(source.path, {})

    def function_for(self, node: ast.AST) -> Optional[FunctionInfo]:
        """The FunctionInfo indexed for a def node, if any."""
        return self._function_of_node.get(id(node))

    def class_of(self, info: FunctionInfo) -> Optional[ClassInfo]:
        if info.cls is None:
            return None
        for cinfo in self.classes.get(info.cls, []):
            if cinfo.source is info.source:
                return cinfo
        candidates = self.classes.get(info.cls, [])
        return candidates[0] if candidates else None

    def lookup_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        """Resolve a canonical dotted name ("repro.core.batch.execute_one")
        to a top-level function in the linted set."""
        if "." not in dotted:
            return None
        module, name = dotted.rsplit(".", 1)
        for key, funcs in self._module_functions.items():
            if (key == module or key.endswith("." + module)) and name in funcs:
                return funcs[name]
        return None

    def lookup_class(self, name: str, near: Optional[SourceFile] = None) -> Optional[ClassInfo]:
        candidates = self.classes.get(name, [])
        if not candidates:
            return None
        if near is not None:
            for cinfo in candidates:
                if cinfo.source is near:
                    return cinfo
        return candidates[0]

    def method_on(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Method lookup through the (name-matched) base-class chain."""
        seen: Set[int] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if id(current) in seen:
                continue
            seen.add(id(current))
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                stack.extend(self.classes.get(base, []))
        return None

    # ------------------------------------------------------------------
    # value-origin inference (receivers, executors, arguments)

    def value_origin(
        self, expr: ast.expr, info: FunctionInfo
    ) -> Tuple[Optional[ClassInfo], Optional[str]]:
        """Best-effort ``(project class, external ctor dotted name)`` a
        value expression originates from; ``(None, None)`` when not
        inferable.  Exactly one of the pair is ever non-``None``."""
        return self._origin(expr, info, depth=0)

    def _origin(
        self, expr: ast.expr, info: FunctionInfo, depth: int
    ) -> Tuple[Optional[ClassInfo], Optional[str]]:
        if depth > 4:
            return (None, None)
        table = self.table(info.source)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in self.classes:
                return (self.lookup_class(func.id, near=info.source), None)
            # a project factory annotated to return an executor (e.g.
            # ``def process_pool(...) -> ProcessPoolExecutor``) makes one;
            # plain names only: receiver inference would recurse here
            targets = (
                self.resolve_call(expr, info) if isinstance(func, ast.Name) else []
            )
            for target in targets:
                returns = getattr(target.node, "returns", None)
                if returns is not None:
                    _, ctor = self._origin_of_annotation(returns, target)
                    if ctor is not None:
                        return (None, ctor)
            dotted = resolve_name(func, table)
            if dotted is not None:
                tail = dotted.rsplit(".", 1)[-1]
                if tail in self.classes:
                    return (self.lookup_class(tail, near=info.source), None)
                return (None, dotted)
            if isinstance(func, ast.Attribute) and func.attr in self.classes:
                return (self.lookup_class(func.attr, near=info.source), None)
            return (None, None)
        if isinstance(expr, ast.Name):
            if expr.id in self.classes:
                # the class object itself (e.g. initializer=SomeClass)
                return (self.lookup_class(expr.id, near=info.source), None)
            return self._origin_of_local(expr.id, info, depth)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            cls = self.class_of(info)
            if cls is None:
                return (None, None)
            return self._origin_of_attr(expr.attr, cls, info, depth)
        return (None, None)

    def _origin_of_local(
        self, name: str, info: FunctionInfo, depth: int
    ) -> Tuple[Optional[ClassInfo], Optional[str]]:
        node = info.node
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        origin = self._origin(child.value, info, depth + 1)
                        if origin != (None, None):
                            return origin
            elif isinstance(child, ast.AnnAssign):
                if isinstance(child.target, ast.Name) and child.target.id == name:
                    if child.value is not None:
                        origin = self._origin(child.value, info, depth + 1)
                        if origin != (None, None):
                            return origin
                    origin = self._origin_of_annotation(child.annotation, info)
                    if origin != (None, None):
                        return origin
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    if (
                        isinstance(item.optional_vars, ast.Name)
                        and item.optional_vars.id == name
                    ):
                        origin = self._origin(item.context_expr, info, depth + 1)
                        if origin != (None, None):
                            return origin
        args = getattr(node, "args", None)
        if args is not None:
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                if arg.arg == name and arg.annotation is not None:
                    return self._origin_of_annotation(arg.annotation, info)
        return (None, None)

    def _origin_of_attr(
        self, attr: str, cls: ClassInfo, info: FunctionInfo, depth: int
    ) -> Tuple[Optional[ClassInfo], Optional[str]]:
        for value in cls.attr_values.get(attr, []):
            owner = self._enclosing_method(value, cls)
            origin = self._origin(value, owner or info, depth + 1)
            if origin != (None, None):
                return origin
        annotation = cls.field_annotations.get(attr)
        if annotation is not None:
            origin = self._origin_of_annotation(annotation, info)
            if origin != (None, None):
                return origin
        default = cls.field_defaults.get(attr)
        if default is not None:
            origin = self._default_factory_origin(default, info)
            if origin != (None, None):
                return origin
        return (None, None)

    def _enclosing_method(
        self, node: ast.AST, cls: ClassInfo
    ) -> Optional[FunctionInfo]:
        from repro.analysis.base import ancestors

        for anc in ancestors(node):
            info = self._function_of_node.get(id(anc))
            if info is not None:
                return info
        return None

    def _default_factory_origin(
        self, default: ast.expr, info: FunctionInfo
    ) -> Tuple[Optional[ClassInfo], Optional[str]]:
        """``field(default_factory=X)`` class-body defaults."""
        if not isinstance(default, ast.Call):
            return (None, None)
        name = default.func
        tail = name.attr if isinstance(name, ast.Attribute) else (
            name.id if isinstance(name, ast.Name) else ""
        )
        if tail != "field":
            return (None, None)
        for kw in default.keywords:
            if kw.arg == "default_factory":
                table = self.table(info.source)
                dotted = resolve_name(kw.value, table)
                if dotted is not None:
                    tail = dotted.rsplit(".", 1)[-1]
                    if tail in self.classes:
                        return (self.lookup_class(tail, near=info.source), None)
                    return (None, dotted)
                if isinstance(kw.value, ast.Name) and kw.value.id in self.classes:
                    return (self.lookup_class(kw.value.id, near=info.source), None)
        return (None, None)

    def _origin_of_annotation(
        self, annotation: ast.expr, info: FunctionInfo
    ) -> Tuple[Optional[ClassInfo], Optional[str]]:
        """Class names mentioned in a (possibly quoted / Optional[...])
        annotation, matched against the project class index first and
        importable dotted names second."""
        table = self.table(info.source)
        names: List[str] = []
        dotted = resolve_name(annotation, table)
        if dotted is not None:
            names.append(dotted)
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                sub = resolve_name(node, table)
                if sub is not None:
                    names.append(sub)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.append(node.value.strip())
        for name in names:
            tail = name.rsplit(".", 1)[-1]
            if tail in self.classes:
                return (self.lookup_class(tail, near=info.source), None)
        for name in names:
            canonical = table.get(name, name)
            if canonical in _EXECUTOR_CTORS:
                return (None, canonical)
        return (None, None)

    # ------------------------------------------------------------------
    # call resolution

    def resolve_call(
        self, call: ast.Call, info: FunctionInfo
    ) -> List[FunctionInfo]:
        """Targets a call may invoke, resolved conservatively (an
        uninferable receiver resolves to nothing, not everything)."""
        func = call.func
        table = self.table(info.source)
        targets: List[FunctionInfo] = []
        if isinstance(func, ast.Name):
            local = self._module_functions.get(
                module_key(info.source.path), {}
            ).get(func.id)
            if local is not None:
                targets.append(local)
            elif func.id in self.classes:
                cinfo = self.lookup_class(func.id, near=info.source)
                init = cinfo and self.method_on(cinfo, "__init__")
                if init is not None:
                    targets.append(init)
            else:
                dotted = table.get(func.id)
                if dotted is not None:
                    hit = self.lookup_dotted(dotted)
                    if hit is not None:
                        targets.append(hit)
                    else:
                        tail = dotted.rsplit(".", 1)[-1]
                        if tail in self.classes:
                            cinfo = self.lookup_class(tail, near=info.source)
                            init = cinfo and self.method_on(cinfo, "__init__")
                            if init is not None:
                                targets.append(init)
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                cls = self.class_of(info)
                if cls is not None:
                    hit = self.method_on(cls, func.attr)
                    if hit is not None:
                        targets.append(hit)
            else:
                dotted = resolve_name(func, table)
                if dotted is not None:
                    hit = self.lookup_dotted(dotted)
                    if hit is not None:
                        targets.append(hit)
                if not targets:
                    receiver_cls, _ = self.value_origin(func.value, info)
                    if receiver_cls is not None:
                        hit = self.method_on(receiver_cls, func.attr)
                        if hit is not None:
                            targets.append(hit)
        return targets

    def resolve_callable_ref(
        self, expr: ast.expr, info: FunctionInfo
    ) -> Optional[FunctionInfo]:
        """A *reference* to a callable (submit targets, initializers);
        a ``functools.partial`` refers to the callable it binds."""
        table = self.table(info.source)
        bound = partial_parts(expr, table)
        if bound is not None:
            return self.resolve_callable_ref(bound[0], info)
        if isinstance(expr, ast.Name):
            local = self._module_functions.get(
                module_key(info.source.path), {}
            ).get(expr.id)
            if local is not None:
                return local
            dotted = table.get(expr.id)
            if dotted is not None:
                return self.lookup_dotted(dotted)
            return None
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                cls = self.class_of(info)
                if cls is not None:
                    return self.method_on(cls, expr.attr)
            dotted = resolve_name(expr, table)
            if dotted is not None:
                return self.lookup_dotted(dotted)
            receiver_cls, _ = self.value_origin(expr.value, info)
            if receiver_cls is not None:
                return self.method_on(receiver_cls, expr.attr)
        return None

    def executor_kind(self, expr: ast.expr, info: FunctionInfo) -> Optional[str]:
        """``"process"`` / ``"thread"`` when the expression is an
        executor of known flavour, else ``None`` (including the
        ``run_in_executor(None, ...)`` default-thread-pool case, which
        callers special-case themselves)."""
        _, ctor = self.value_origin(expr, info)
        if ctor in PROCESS_POOL_CTORS:
            return "process"
        if ctor in THREAD_POOL_CTORS:
            return "thread"
        return None

    def _edges_from(self, info: FunctionInfo) -> List[CallEdge]:
        edges: List[CallEdge] = []

        def note(target: Optional[FunctionInfo], line: int, offthread: bool):
            if target is not None and target.qualname != info.qualname:
                edges.append(
                    CallEdge(
                        caller=info.qualname,
                        callee=target.qualname,
                        line=line,
                        offthread=offthread,
                    )
                )

        for node in walk_in_function(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            if attr == "submit" and node.args:
                kind = self.executor_kind(func.value, info)
                if kind is not None:
                    note(
                        self.resolve_callable_ref(node.args[0], info),
                        node.lineno,
                        offthread=True,
                    )
                    continue
            if attr == "run_in_executor" and len(node.args) >= 2:
                note(
                    self.resolve_callable_ref(node.args[1], info),
                    node.lineno,
                    offthread=True,
                )
                continue
            table = self.table(info.source)
            dotted = resolve_name(func, table)
            if dotted in _EXECUTOR_CTORS or (
                isinstance(func, ast.Name) and func.id in ("ProcessPoolExecutor", "ThreadPoolExecutor")
            ):
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        note(
                            self.resolve_callable_ref(kw.value, info),
                            node.lineno,
                            offthread=True,
                        )
            for target in self.resolve_call(node, info):
                note(target, node.lineno, offthread=False)
        return edges

    # ------------------------------------------------------------------
    # traversal

    def callees(self, qualname: str) -> List[CallEdge]:
        return self.edges.get(qualname, [])

    def callers(self, qualname: str) -> List[CallEdge]:
        """Edges *into* ``qualname`` (the reverse index, built lazily —
        effect inference traces payload parameters back to caller
        arguments)."""
        reverse = getattr(self, "_reverse_edges", None)
        if reverse is None:
            reverse = {}
            for edges in self.edges.values():
                for edge in edges:
                    reverse.setdefault(edge.callee, []).append(edge)
            self._reverse_edges: Dict[str, List[CallEdge]] = reverse
        return reverse.get(qualname, [])


def partial_parts(
    expr: ast.expr, table: Dict[str, str]
) -> Optional[Tuple[ast.expr, List[ast.expr]]]:
    """``(callable, bound arguments)`` of a ``functools.partial(...)``
    expression — what a process pool really receives — else ``None``."""
    if (
        isinstance(expr, ast.Call)
        and expr.args
        and resolve_name(expr.func, table) == "functools.partial"
    ):
        return expr.args[0], expr.args[1:] + [kw.value for kw in expr.keywords]
    return None


def walk_in_function(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs or
    lambdas (those are their own call-graph nodes / executor targets)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def callgraph(project: Project) -> CallGraph:
    """The project's call graph, built once and cached on the instance
    (several cross-module rules share one lint run)."""
    cached = getattr(project, "_callgraph", None)
    if cached is None:
        cached = CallGraph(project)
        project._callgraph = cached  # type: ignore[attr-defined]
    return cached

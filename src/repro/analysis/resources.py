"""Exception-path resource safety via escape analysis.

``resource-exception-safety`` proves that every lock, executor, socket,
pool, or file handle acquired *outside* a ``with`` block is released on
all exception paths.  The shutdown bugs PRs 3–6 fixed were exactly this
shape: an executor that an exception mid-run would have orphaned, a
coordinator socket closed only on the success path.  ``with`` is always
the preferred fix; when flow control genuinely needs manual lifetime
management (an executor built before a loop and shut down after it),
the acquisition must be paired with a ``try``/``finally`` release — and
the rule follows the release through helper-method splits
(``finally: self._teardown(ctx)`` where the helper does the actual
``shutdown``), because that is how real cleanup code is factored.

The analysis is deliberately under-approximate about *ownership*: a
handle that escapes the function — returned, yielded, aliased into a
container or attribute, or passed to another call — is someone else's
to close, and is never reported.  What remains is the provable leak: a
resource acquired, used, and (at best) released only on the straight
path, so the first exception in between orphans it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.base import (
    Finding,
    Project,
    Rule,
    SourceFile,
    register_rule,
    resolve_name,
)
from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    callgraph,
    walk_in_function,
)

__all__ = ["ResourceExceptionSafetyRule"]


#: Constructor → (resource kind, methods whose call counts as release).
_ACQUIRE_CTORS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "socket.socket": ("socket", ("close", "detach")),
    "socket.create_connection": ("socket", ("close", "detach")),
    "socket.create_server": ("socket", ("close", "detach")),
    "concurrent.futures.ThreadPoolExecutor": ("executor", ("shutdown",)),
    "concurrent.futures.ProcessPoolExecutor": ("executor", ("shutdown",)),
    "multiprocessing.Pool": ("pool", ("close", "terminate")),
}

_OPEN_RELEASES = ("close",)
_LOCK_RELEASES = ("release",)

_MAX_HELPER_DEPTH = 3


@dataclass
class _Acquisition:
    key: str  # dotted receiver repr: "sock", "self._lock", "ctx.executor"
    kind: str
    releases: Tuple[str, ...]
    line: int
    detail: str
    is_attr: bool  # bound to an attribute (self.x / ctx.x), not a local


def _dotted(expr: ast.expr) -> Optional[str]:
    """Stable textual key for a Name/Attribute chain; None otherwise."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _dotted(expr.value)
        return None if base is None else f"{base}.{expr.attr}"
    return None


def _acquisition_of(
    call: ast.Call, table: Dict[str, str]
) -> Optional[Tuple[str, Tuple[str, ...], str]]:
    """``(kind, release methods, description)`` when the call constructs
    a tracked resource."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open" and func.id not in table:
        return ("file", _OPEN_RELEASES, "open()")
    name = resolve_name(func, table)
    if name in _ACQUIRE_CTORS:
        kind, releases = _ACQUIRE_CTORS[name]
        return (kind, releases, f"{name}()")
    if isinstance(func, ast.Name) and func.id in (
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
    ):
        # common unaliased from-import the table may not canonicalise
        canonical = table.get(func.id, "")
        if canonical.startswith("concurrent.futures.") or not canonical:
            return ("executor", ("shutdown",), f"{func.id}()")
    return None


@register_rule("resource-exception-safety")
class ResourceExceptionSafetyRule(Rule):
    """Manual resource lifetimes must survive exceptions.

    Reported: a lock ``.acquire()`` or a file/socket/executor/pool
    constructed outside ``with`` whose binding neither escapes the
    function nor is released in a ``finally`` (followed transitively
    through helper calls) — including the half-bug where a release
    exists but only on the success path.  Attribute-held resources
    (``self.sock = socket.socket(...)``) are owned by the object: they
    are safe when *any* method of the class releases them (a ``close()``
    / ``__exit__`` convention), reported when none does.
    """

    invariant = (
        "locks, executors, sockets, pools, and files acquired outside "
        "`with` are released on every exception path (try/finally, "
        "possibly through helper methods) or escape to a longer-lived "
        "owner"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        graph = callgraph(project)
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info = graph.function_for(node)
            if info is None:
                continue
            yield from self._check_function(info, graph)

    # ------------------------------------------------------------------

    def _check_function(
        self, info: FunctionInfo, graph: CallGraph
    ) -> Iterator[Finding]:
        table = graph.table(info.source)
        acquisitions = self._acquisitions(info, table)
        if not acquisitions:
            return
        with_keys = self._with_managed_keys(info)
        for acq in acquisitions:
            if acq.key in with_keys:
                continue
            if not acq.is_attr and self._escapes(acq.key, info):
                continue
            released_in_finally = self._released_in_finally(
                acq.key, acq.releases, info, graph
            )
            if released_in_finally is not None:
                continue
            if acq.is_attr and self._class_releases(acq, info, graph):
                continue
            anywhere = self._release_line(acq.key, acq.releases, info)
            if anywhere is not None:
                message = (
                    f"{acq.detail} bound to {acq.key} is released only on "
                    f"the success path (line {anywhere}); an exception "
                    "between acquisition and release leaks it — move the "
                    f"{'/'.join(acq.releases)} into try/finally or use with"
                )
            else:
                message = (
                    f"{acq.detail} bound to {acq.key} is never released on "
                    "any path out of this function and does not escape — "
                    f"use with, or {'/'.join(acq.releases)} in a finally"
                )
            yield Finding(
                rule=self.name,
                path=info.source.path,
                line=acq.line,
                message=message,
                severity=self.severity,
                chain=(
                    f"{info.name}() acquires {acq.detail} as {acq.key} "
                    f"at {info.source.path}:{acq.line}",
                    "no with-block manages it, no finally releases it "
                    "(helper methods searched), and it does not escape",
                ),
            )

    # ------------------------------------------------------------------
    # acquisition collection

    def _acquisitions(
        self, info: FunctionInfo, table: Dict[str, str]
    ) -> List[_Acquisition]:
        context_exprs = {
            id(item.context_expr)
            for node in walk_in_function(info.node)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        }
        found: List[_Acquisition] = []
        for node in walk_in_function(info.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                value = node.value
                if not isinstance(value, ast.Call) or id(value) in context_exprs:
                    continue
                acq = _acquisition_of(value, table)
                if acq is None:
                    continue
                kind, releases, detail = acq
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    key = _dotted(target)
                    if key is None:
                        continue
                    found.append(
                        _Acquisition(
                            key=key,
                            kind=kind,
                            releases=releases,
                            line=value.lineno,
                            detail=detail,
                            is_attr=isinstance(target, ast.Attribute),
                        )
                    )
            elif isinstance(node, ast.Call) and id(node) not in context_exprs:
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "acquire":
                    key = _dotted(func.value)
                    if key is None:
                        continue
                    found.append(
                        _Acquisition(
                            key=key,
                            kind="lock",
                            releases=_LOCK_RELEASES,
                            line=node.lineno,
                            detail=f"{key}.acquire()",
                            is_attr="." in key,
                        )
                    )
        return found

    @staticmethod
    def _with_managed_keys(info: FunctionInfo) -> Set[str]:
        keys: Set[str] = set()
        for node in walk_in_function(info.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    key = _dotted(item.context_expr)
                    if key is not None:
                        keys.add(key)
        return keys

    # ------------------------------------------------------------------
    # escape analysis (local bindings only)

    @staticmethod
    def _escapes(key: str, info: FunctionInfo) -> bool:
        for node in walk_in_function(info.node):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                # returning the handle (or a container holding it) hands
                # off ownership; returning a *result computed from* it
                # (`return sock.recv(16)`) does not
                value = node.value
                if value is not None and _mentions_outside_calls(value, key):
                    return True
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if _mentions(arg, key):
                        return True
            elif isinstance(node, ast.Assign):
                # aliased: d[k] = x, self.f = x, g = x, pair = (x, y) —
                # but a call's receiver/arguments are not aliasing (the
                # Call branch above already sees real argument escapes)
                if _mentions_outside_calls(node.value, key):
                    return True
        return False

    # ------------------------------------------------------------------
    # release search

    def _released_in_finally(
        self, key: str, releases: Tuple[str, ...], info: FunctionInfo, graph: CallGraph
    ) -> Optional[int]:
        """Line of a release reached from some ``finally`` block in this
        function, following helper calls; None when no path releases."""
        for node in walk_in_function(info.node):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            for stmt in node.finalbody:
                line = self._release_in_tree(stmt, key, releases, info, graph, 0)
                if line is not None:
                    return line
        return None

    def _release_in_tree(
        self,
        root: ast.AST,
        key: str,
        releases: Tuple[str, ...],
        info: FunctionInfo,
        graph: CallGraph,
        depth: int,
    ) -> Optional[int]:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in releases
                and _dotted(func.value) == key
            ):
                return node.lineno
            if depth < _MAX_HELPER_DEPTH:
                for target in graph.resolve_call(node, info):
                    line = self._release_in_tree(
                        target.node, key, releases, target, graph, depth + 1
                    )
                    if line is not None:
                        return node.lineno  # report the helper call site
        return None

    @staticmethod
    def _release_line(
        key: str, releases: Tuple[str, ...], info: FunctionInfo
    ) -> Optional[int]:
        for node in walk_in_function(info.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in releases
                and _dotted(node.func.value) == key
            ):
                return node.lineno
        return None

    def _class_releases(
        self, acq: _Acquisition, info: FunctionInfo, graph: CallGraph
    ) -> bool:
        """Attribute-held resources: safe when any method of the owning
        class releases the same attribute path (``self.sock.close()`` in
        ``close()``/``__exit__``/teardown), or ``with``-manages it."""
        if not acq.key.startswith("self."):
            return False
        cls = graph.class_of(info)
        if cls is None:
            return False
        for method in cls.methods.values():
            if self._release_line(acq.key, acq.releases, method) is not None:
                return True
            if acq.key in self._with_managed_keys(method):
                return True
        return False


def _mentions(expr: ast.AST, key: str) -> bool:
    head = key.split(".", 1)[0]
    for leaf in ast.walk(expr):
        if isinstance(leaf, ast.Name) and leaf.id == head:
            return True
    return False


def _mentions_outside_calls(expr: ast.AST, key: str) -> bool:
    head = key.split(".", 1)[0]
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            continue
        if isinstance(node, ast.Name) and node.id == head:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False

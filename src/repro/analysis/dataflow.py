"""Cross-module dataflow rules built on the project call graph.

Four ``check_project`` rules that need whole-program structure rather
than a single syntax tree (see :mod:`repro.analysis.callgraph` for how
edges are resolved):

``transitive-blocking-in-async``
    A blocking primitive (``time.sleep``, sync socket setup) reachable
    from an ``async def`` *through the call graph* — the caller is two
    frames away from the offending line, which the per-file
    ``no-blocking-in-async`` rule cannot see.  Direct (depth-0) hits
    stay with the per-file rule; this one reports chains only.

``lock-order``
    Derives the lock-acquisition graph: which locks each function holds
    when it acquires (directly or transitively through calls) another.
    Flags acquisition cycles, re-entry of a non-reentrant lock, and
    ``await`` while a ``threading`` lock is held (the loop parks with
    the lock taken; every other thread then parks behind it).

``pickle-boundary``
    Objects crossing a process-pool boundary (``submit`` on a
    ``ProcessPoolExecutor``, ``run_in_executor`` with a process pool,
    ``initargs``) must not transitively carry locks, sockets,
    executors, event loops, or generators — unless the class opts into
    custom pickling via ``__reduce__``/``__getstate__``/``__reduce_ex__``
    (``ArtifactStore`` does exactly this).  This is the exact class of
    PR 4's ``DominoCellLibrary`` bug.

``protocol-liveness``
    Bounded model check of the fleet protocol extracted by
    :mod:`repro.analysis.protocol_model`: send-without-handler pairs,
    orphan messages, no-exit and never-entered states.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import (
    Finding,
    Project,
    Rule,
    import_table,
    register_rule,
    resolve_name,
)
from repro.analysis.callgraph import (
    CallEdge,
    CallGraph,
    ClassInfo,
    FunctionInfo,
    callgraph,
    module_key,
    partial_parts,
    walk_in_function,
)
from repro.analysis.protocol_model import check_protocol, extract_protocol
from repro.analysis.rules import _BLOCKING_CALLS

__all__ = [
    "TransitiveBlockingRule",
    "LockOrderRule",
    "PickleBoundaryRule",
    "ProtocolLivenessRule",
]

_MAX_CHAIN_DEPTH = 12


def _short(qualname: str) -> str:
    """Human-readable function name: drop the module, keep Class.method."""
    return qualname.rsplit("::", 1)[-1]


# ---------------------------------------------------------------------------
# transitive-blocking-in-async


@register_rule("transitive-blocking-in-async")
class TransitiveBlockingRule(Rule):
    """Blocking primitives must not be reachable from ``async def``.

    The per-file rule catches ``time.sleep`` lexically inside an async
    body; this one follows resolved call edges (on-loop only — executor
    submissions run elsewhere) so a helper-of-a-helper that blocks is
    caught at the call site where the async function enters the chain.
    """

    invariant = (
        "no blocking primitive is reachable from an async def through "
        "the call graph (executor-submitted work excepted)"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = callgraph(project)
        blocking = self._blocking_sites(graph)
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if not info.is_async:
                continue
            yield from self._check_async_root(graph, info, blocking)

    @staticmethod
    def _blocking_sites(graph: CallGraph) -> Dict[str, List[Tuple[str, int]]]:
        sites: Dict[str, List[Tuple[str, int]]] = {}
        for qualname, info in graph.functions.items():
            table = graph.table(info.source)
            hits = [
                (name, node.lineno)
                for node in walk_in_function(info.node)
                if isinstance(node, ast.Call)
                and (name := resolve_name(node.func, table)) in _BLOCKING_CALLS
            ]
            if hits:
                sites[qualname] = hits
        return sites

    def _check_async_root(
        self,
        graph: CallGraph,
        root: FunctionInfo,
        blocking: Dict[str, List[Tuple[str, int]]],
    ) -> Iterator[Finding]:
        # BFS over on-loop sync edges: shortest chain per blocked callee.
        visited: Set[str] = {root.qualname}
        frontier: List[Tuple[str, CallEdge, Tuple[str, ...]]] = []
        for edge in sorted(graph.callees(root.qualname), key=lambda e: e.line):
            callee = graph.functions.get(edge.callee)
            if edge.offthread or callee is None or callee.is_async:
                continue
            frontier.append((edge.callee, edge, (edge.callee,)))
        reported: Set[Tuple[int, str, int]] = set()
        depth = 0
        while frontier and depth < _MAX_CHAIN_DEPTH:
            depth += 1
            next_frontier: List[Tuple[str, CallEdge, Tuple[str, ...]]] = []
            for qualname, first_edge, chain in frontier:
                if qualname in visited:
                    continue
                visited.add(qualname)
                for primitive, line in blocking.get(qualname, []):
                    info = graph.functions[qualname]
                    key = (first_edge.line, primitive, line)
                    if key in reported:
                        continue
                    reported.add(key)
                    path = " -> ".join(
                        [_short(root.qualname) + "()"]
                        + [_short(q) + "()" for q in chain]
                    )
                    yield self.finding(
                        root.source,
                        first_edge.line,
                        f"async {_short(root.qualname)}() reaches blocking "
                        f"{primitive}() at {info.source.path}:{line} via "
                        f"{path}; {_BLOCKING_CALLS[primitive]} or move the "
                        "chain through run_in_executor",
                    )
                for edge in sorted(graph.callees(qualname), key=lambda e: e.line):
                    callee = graph.functions.get(edge.callee)
                    if edge.offthread or callee is None or callee.is_async:
                        continue
                    if edge.callee not in visited:
                        next_frontier.append(
                            (edge.callee, first_edge, chain + (edge.callee,))
                        )
            frontier = next_frontier


# ---------------------------------------------------------------------------
# lock-order


_LOCK_CTORS = {
    "threading.Lock": "threading",
    "threading.RLock": "threading-reentrant",
    "asyncio.Lock": "asyncio",
}


@dataclass(frozen=True)
class _LockId:
    name: str  # "StoreBackend._counter_lock", or "<module key>.<NAME>" for a global
    kind: str  # a value of _LOCK_CTORS

    @property
    def reentrant(self) -> bool:
        return self.kind == "threading-reentrant"


@dataclass(frozen=True)
class _LockEdge:
    held: _LockId
    acquired: _LockId
    source_path: str
    line: int
    via: str  # "" for a lexically nested acquisition, else the callee


@register_rule("lock-order")
class LockOrderRule(Rule):
    """The project-wide lock-acquisition graph stays cycle-free.

    Two code paths taking the same pair of locks in opposite orders is
    a deadlock waiting for the right interleaving; so is re-entering a
    non-reentrant lock, or ``await``-ing with a ``threading.Lock`` held
    (the event loop parks inside the critical section and every other
    thread queues behind it).  Lock regions are ``with``-statements over
    attributes/globals assigned from ``threading.Lock()`` / ``RLock()``
    / ``asyncio.Lock()``; calls made inside a region contribute the
    callee's transitive acquisitions as ordered edges.
    """

    invariant = (
        "lock-acquisition order is globally acyclic; no await under a "
        "held threading.Lock; no re-entry of non-reentrant locks"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = callgraph(project)
        locks = self._collect_locks(graph)
        if not locks:
            return
        regions = self._regions_by_function(graph, locks)
        transitive = self._transitive_acquisitions(graph, regions)
        edges: List[_LockEdge] = []
        for qualname in sorted(regions):
            info = graph.functions[qualname]
            for held, region_node, is_async_with in regions[qualname]:
                yield from self._scan_region(
                    graph, info, held, region_node, locks, transitive, edges
                )
        yield from self._self_deadlocks(edges)
        yield from self._cycles(edges)

    # -- lock discovery ------------------------------------------------

    def _collect_locks(self, graph: CallGraph) -> Dict[Tuple[str, str], _LockId]:
        """Map ``(owner, attr)`` → lock; owner is a class name or a
        module key for module-level locks."""
        locks: Dict[Tuple[str, str], _LockId] = {}
        for cls_list in graph.classes.values():
            for cls in cls_list:
                table = graph.table(cls.source)
                for attr, values in cls.attr_values.items():
                    for value in values:
                        kind = self._lock_kind(value, table)
                        if kind is not None:
                            locks[(cls.name, attr)] = _LockId(
                                f"{cls.name}.{attr}", kind
                            )
                for name, default in cls.field_defaults.items():
                    kind = self._factory_lock_kind(default, table)
                    if kind is not None:
                        locks[(cls.name, name)] = _LockId(f"{cls.name}.{name}", kind)
        for source in graph.project.parsed():
            table = import_table(source.tree)
            key = module_key(source.path)
            for stmt in source.tree.body:
                if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                    continue
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                kind = self._lock_kind(stmt.value, table)
                if kind is not None:
                    locks[(key, target.id)] = _LockId(
                        f"{key}.{target.id}", kind
                    )
        return locks

    @staticmethod
    def _lock_kind(value: ast.expr, table: Dict[str, str]) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        dotted = resolve_name(value.func, table)
        return _LOCK_CTORS.get(dotted or "")

    @staticmethod
    def _factory_lock_kind(default: ast.expr, table: Dict[str, str]) -> Optional[str]:
        """``field(default_factory=threading.Lock)`` class-body defaults."""
        if not isinstance(default, ast.Call):
            return None
        func = default.func
        tail = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if tail != "field":
            return None
        for kw in default.keywords:
            if kw.arg == "default_factory":
                dotted = resolve_name(kw.value, table)
                return _LOCK_CTORS.get(dotted or "")
        return None

    def _resolve_lock(
        self,
        expr: ast.expr,
        info: FunctionInfo,
        graph: CallGraph,
        locks: Dict[Tuple[str, str], _LockId],
    ) -> Optional[_LockId]:
        if isinstance(expr, ast.Name):
            return locks.get((module_key(info.source.path), expr.id))
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                cls = graph.class_of(info)
                seen: Set[str] = set()
                while cls is not None and cls.name not in seen:
                    seen.add(cls.name)
                    hit = locks.get((cls.name, expr.attr))
                    if hit is not None:
                        return hit
                    nxt = None
                    for base in cls.bases:
                        candidates = graph.classes.get(base, [])
                        if candidates:
                            nxt = candidates[0]
                            break
                    cls = nxt
                return None
            receiver, _ = graph.value_origin(expr.value, info)
            if receiver is not None:
                return locks.get((receiver.name, expr.attr))
        return None

    # -- regions and transitive sets -----------------------------------

    def _regions_by_function(
        self, graph: CallGraph, locks: Dict[Tuple[str, str], _LockId]
    ) -> Dict[str, List[Tuple[_LockId, ast.AST, bool]]]:
        regions: Dict[str, List[Tuple[_LockId, ast.AST, bool]]] = {}
        for qualname, info in graph.functions.items():
            found: List[Tuple[_LockId, ast.AST, bool]] = []
            for node in walk_in_function(info.node):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                for item in node.items:
                    lock = self._resolve_lock(item.context_expr, info, graph, locks)
                    if lock is not None:
                        found.append((lock, node, isinstance(node, ast.AsyncWith)))
            if found:
                regions[qualname] = found
        return regions

    @staticmethod
    def _transitive_acquisitions(
        graph: CallGraph,
        regions: Dict[str, List[Tuple[_LockId, ast.AST, bool]]],
    ) -> Dict[str, Set[_LockId]]:
        """Fixpoint: locks a call to each function may acquire, through
        any chain of on-thread calls."""
        acquired: Dict[str, Set[_LockId]] = {
            qualname: {lock for lock, _, _ in found}
            for qualname, found in regions.items()
        }
        changed = True
        while changed:
            changed = False
            for qualname in graph.functions:
                current = acquired.setdefault(qualname, set())
                for edge in graph.callees(qualname):
                    if edge.offthread:
                        continue
                    extra = acquired.get(edge.callee)
                    if extra and not extra <= current:
                        current |= extra
                        changed = True
        return acquired

    def _scan_region(
        self,
        graph: CallGraph,
        info: FunctionInfo,
        held: _LockId,
        region: ast.AST,
        locks: Dict[Tuple[str, str], _LockId],
        transitive: Dict[str, Set[_LockId]],
        edges: List[_LockEdge],
    ) -> Iterator[Finding]:
        body: List[ast.stmt] = list(getattr(region, "body", []))
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    inner = self._resolve_lock(item.context_expr, info, graph, locks)
                    if inner is not None:
                        edges.append(
                            _LockEdge(
                                held=held,
                                acquired=inner,
                                source_path=info.source.path,
                                line=node.lineno,
                                via="",
                            )
                        )
            elif isinstance(node, ast.Await) and held.kind.startswith("threading"):
                yield self.finding(
                    info.source,
                    node.lineno,
                    f"await while holding threading lock {held.name} (taken "
                    f"in {_short(info.qualname)}()); the event loop parks "
                    "inside the critical section — release the lock first "
                    "or use asyncio.Lock",
                )
            elif isinstance(node, ast.Call):
                for target in graph.resolve_call(node, info):
                    for inner in sorted(
                        transitive.get(target.qualname, ()), key=lambda l: l.name
                    ):
                        edges.append(
                            _LockEdge(
                                held=held,
                                acquired=inner,
                                source_path=info.source.path,
                                line=node.lineno,
                                via=_short(target.qualname),
                            )
                        )

    # -- verdicts ------------------------------------------------------

    def _self_deadlocks(self, edges: List[_LockEdge]) -> Iterator[Finding]:
        seen: Set[Tuple[str, int]] = set()
        for edge in sorted(edges, key=lambda e: (e.source_path, e.line)):
            if edge.held != edge.acquired or edge.held.reentrant:
                continue
            key = (edge.source_path, edge.line)
            if key in seen:
                continue
            seen.add(key)
            via = f" via {edge.via}()" if edge.via else ""
            yield Finding(
                rule=self.name,
                path=edge.source_path,
                line=edge.line,
                message=(
                    f"non-reentrant lock {edge.held.name} re-acquired while "
                    f"already held{via}; this deadlocks immediately "
                    "(threading.Lock and asyncio.Lock do not re-enter)"
                ),
                severity=self.severity,
            )

    def _cycles(self, edges: List[_LockEdge]) -> Iterator[Finding]:
        graph: Dict[_LockId, Set[_LockId]] = {}
        for edge in edges:
            if edge.held != edge.acquired:
                graph.setdefault(edge.held, set()).add(edge.acquired)
                graph.setdefault(edge.acquired, set())
        sccs = _strongly_connected(graph)
        for component in sccs:
            if len(component) < 2:
                continue
            names = sorted(lock.name for lock in component)
            witness = sorted(
                (
                    e
                    for e in edges
                    if e.held in component and e.acquired in component
                ),
                key=lambda e: (e.source_path, e.line),
            )
            detail = "; ".join(
                f"{e.held.name} -> {e.acquired.name} at {e.source_path}:{e.line}"
                for e in witness[:4]
            )
            anchor = witness[0]
            yield Finding(
                rule=self.name,
                path=anchor.source_path,
                line=anchor.line,
                message=(
                    "lock-order cycle between "
                    + ", ".join(names)
                    + f" ({detail}); two threads taking these locks in "
                    "opposite orders deadlock — pick one global order"
                ),
                severity=self.severity,
            )


def _strongly_connected(
    graph: Dict[_LockId, Set[_LockId]]
) -> List[List[_LockId]]:
    """Iterative Tarjan; deterministic over sorted node order."""
    index: Dict[_LockId, int] = {}
    lowlink: Dict[_LockId, int] = {}
    on_stack: Set[_LockId] = set()
    stack: List[_LockId] = []
    counter = [0]
    result: List[List[_LockId]] = []

    def strongconnect(root: _LockId) -> None:
        work: List[Tuple[_LockId, Iterator[_LockId]]] = [
            (root, iter(sorted(graph.get(root, ()), key=lambda l: l.name)))
        ]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append(
                        (
                            child,
                            iter(sorted(graph.get(child, ()), key=lambda l: l.name)),
                        )
                    )
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[_LockId] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)

    for node in sorted(graph, key=lambda l: l.name):
        if node not in index:
            strongconnect(node)
    return result


# ---------------------------------------------------------------------------
# pickle-boundary


_UNPICKLABLE_CTORS = {
    "threading.Lock": "a threading.Lock",
    "threading.RLock": "a threading.RLock",
    "threading.Condition": "a threading.Condition",
    "threading.Event": "a threading.Event",
    "threading.Semaphore": "a threading.Semaphore",
    "threading.BoundedSemaphore": "a threading.BoundedSemaphore",
    "socket.socket": "a socket",
    "socket.create_connection": "a socket",
    "asyncio.Lock": "an asyncio.Lock",
    "asyncio.Event": "an asyncio.Event",
    "asyncio.Condition": "an asyncio.Condition",
    "asyncio.Queue": "an asyncio.Queue",
    "asyncio.get_event_loop": "an event loop",
    "asyncio.get_running_loop": "an event loop",
    "asyncio.new_event_loop": "an event loop",
    "concurrent.futures.ThreadPoolExecutor": "an executor",
    "concurrent.futures.ProcessPoolExecutor": "an executor",
}


@register_rule("pickle-boundary")
class PickleBoundaryRule(Rule):
    """Nothing loop-bound or lock-carrying crosses a process boundary.

    ``ProcessPoolExecutor.submit`` pickles every argument in the parent
    and unpickles in the child; a ``threading.Lock`` (or socket, or
    executor, or live generator) anywhere in the object graph raises
    ``TypeError: cannot pickle`` at submit time — or worse, much later
    under load.  Classes that define ``__reduce__`` / ``__getstate__``
    opt out by declaring exactly what crosses (``ArtifactStore``
    re-opens from its root path).  Thread pools are exempt: nothing is
    pickled.
    """

    invariant = (
        "arguments crossing ProcessPoolExecutor boundaries never "
        "transitively hold locks/sockets/executors/loops/generators "
        "(custom __reduce__/__getstate__ classes excepted)"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = callgraph(project)
        tainted = self._tainted_classes(graph)
        if not tainted and not graph.classes:
            return
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            yield from self._check_function(graph, info, tainted)

    # -- taint ---------------------------------------------------------

    def _tainted_classes(self, graph: CallGraph) -> Dict[int, Tuple[ClassInfo, str]]:
        """``id(ClassInfo)`` → (class, why it cannot cross a process
        boundary).  Classes with custom pickling are never tainted."""
        tainted: Dict[int, Tuple[ClassInfo, str]] = {}
        all_classes = [
            cls for cls_list in graph.classes.values() for cls in cls_list
        ]
        for cls in all_classes:
            if cls.defines_custom_pickling():
                continue
            reason = self._direct_taint(graph, cls)
            if reason is not None:
                tainted[id(cls)] = (cls, reason)
        changed = True
        while changed:
            changed = False
            for cls in all_classes:
                if id(cls) in tainted or cls.defines_custom_pickling():
                    continue
                for attr, values in sorted(cls.attr_values.items()):
                    hit = self._attr_origin_taint(graph, cls, attr, values, tainted)
                    if hit is not None:
                        tainted[id(cls)] = (cls, hit)
                        changed = True
                        break
        return tainted

    def _direct_taint(self, graph: CallGraph, cls: ClassInfo) -> Optional[str]:
        table = graph.table(cls.source)
        for attr, values in sorted(cls.attr_values.items()):
            for value in values:
                if isinstance(value, ast.Call):
                    dotted = resolve_name(value.func, table)
                    if dotted in _UNPICKLABLE_CTORS:
                        return f"field {attr!r} holds {_UNPICKLABLE_CTORS[dotted]}"
                    gen = self._generator_target(graph, cls, value)
                    if gen is not None:
                        return (
                            f"field {attr!r} holds a live generator "
                            f"({gen}() yields)"
                        )
        for name, default in sorted(cls.field_defaults.items()):
            dotted = self._factory_ctor(default, table)
            if dotted in _UNPICKLABLE_CTORS:
                return f"field {name!r} holds {_UNPICKLABLE_CTORS[dotted]}"
        return None

    @staticmethod
    def _factory_ctor(default: ast.expr, table: Dict[str, str]) -> Optional[str]:
        if not isinstance(default, ast.Call):
            return None
        func = default.func
        tail = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if tail != "field":
            return None
        for kw in default.keywords:
            if kw.arg == "default_factory":
                return resolve_name(kw.value, table)
        return None

    @staticmethod
    def _generator_target(
        graph: CallGraph, cls: ClassInfo, value: ast.Call
    ) -> Optional[str]:
        if not isinstance(value.func, ast.Name):
            return None
        module = module_key(cls.source.path)
        target = graph.lookup_dotted(f"{module}.{value.func.id}")
        if target is None:
            return None
        if any(
            isinstance(n, (ast.Yield, ast.YieldFrom))
            for n in walk_in_function(target.node)
        ):
            return target.name
        return None

    def _attr_origin_taint(
        self,
        graph: CallGraph,
        cls: ClassInfo,
        attr: str,
        values: Sequence[ast.expr],
        tainted: Dict[int, Tuple[ClassInfo, str]],
    ) -> Optional[str]:
        for value in values:
            owner = graph._enclosing_method(value, cls)
            if owner is None:
                continue
            origin, _ = graph.value_origin(value, owner)
            if origin is not None and id(origin) in tainted:
                _, why = tainted[id(origin)]
                return f"field {attr!r} holds {origin.name} ({why})"
        return None

    # -- boundaries ----------------------------------------------------

    def _check_function(
        self,
        graph: CallGraph,
        info: FunctionInfo,
        tainted: Dict[int, Tuple[ClassInfo, str]],
    ) -> Iterator[Finding]:
        for node in walk_in_function(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            if attr == "submit" and node.args:
                if graph.executor_kind(func.value, info) == "process":
                    yield from self._check_crossing(
                        graph, info, node, node.args[0], node.args[1:], tainted
                    )
            elif attr == "run_in_executor" and len(node.args) >= 2:
                pool = node.args[0]
                if isinstance(pool, ast.Constant) and pool.value is None:
                    continue  # default thread pool: nothing pickles
                if graph.executor_kind(pool, info) == "process":
                    yield from self._check_crossing(
                        graph, info, node, node.args[1], node.args[2:], tainted
                    )
            else:
                table = graph.table(info.source)
                dotted = resolve_name(func, table)
                if dotted == "concurrent.futures.ProcessPoolExecutor" or (
                    isinstance(func, ast.Name)
                    and func.id == "ProcessPoolExecutor"
                ):
                    for kw in node.keywords:
                        if kw.arg == "initializer":
                            yield from self._check_crossing(
                                graph, info, node, kw.value, [], tainted
                            )
                        elif kw.arg == "initargs" and isinstance(
                            kw.value, ast.Tuple
                        ):
                            yield from self._check_crossing(
                                graph, info, node, None, kw.value.elts, tainted
                            )

    def _check_crossing(
        self,
        graph: CallGraph,
        info: FunctionInfo,
        call: ast.Call,
        callable_ref: Optional[ast.expr],
        payload: Sequence[ast.expr],
        tainted: Dict[int, Tuple[ClassInfo, str]],
    ) -> Iterator[Finding]:
        bound = partial_parts(callable_ref, graph.table(info.source))
        if bound is not None:  # the partial's arguments cross too
            callable_ref, payload = bound[0], [*bound[1], *payload]
        if isinstance(callable_ref, ast.Attribute):
            receiver, _ = graph.value_origin(callable_ref.value, info)
            if receiver is not None and id(receiver) in tainted:
                _, why = tainted[id(receiver)]
                yield self.finding(
                    info.source,
                    call.lineno,
                    f"bound method {_describe(callable_ref)} crosses a "
                    f"process-pool boundary, pickling its {receiver.name} "
                    f"instance — which cannot pickle: {why}; submit a "
                    "module-level function and plain-data arguments",
                )
        for arg in payload:
            origin, _ = graph.value_origin(arg, info)
            if origin is not None and id(origin) in tainted:
                _, why = tainted[id(origin)]
                yield self.finding(
                    info.source,
                    call.lineno,
                    f"argument {_describe(arg)} crossing a process-pool "
                    f"boundary is a {origin.name}, which cannot pickle: "
                    f"{why}; pass plain data (or give {origin.name} a "
                    "__reduce__/__getstate__)",
                )


def _describe(node: ast.expr) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


# ---------------------------------------------------------------------------
# protocol-liveness


@register_rule("protocol-liveness")
class ProtocolLivenessRule(Rule):
    """The composed fleet protocol has no dead messages or dead states.

    Extracts the coordinator/worker model (who sends and handles which
    message; which declared states are entered and exited where) and
    checks the product machine: every sent message has a peer handler,
    every registered message participates, every enterable state has an
    exit or a terminal declaration, every declared state is reachable.
    See :mod:`repro.analysis.protocol_model`.
    """

    invariant = (
        "every sent fleet message has a peer handler; every declared "
        "state is entered and (unless terminal) exited"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        model = extract_protocol(project)
        for source, line, message in check_protocol(model):
            yield self.finding(source, line, message)

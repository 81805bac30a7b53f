"""Bottom-up effect/purity inference over the project call graph.

Generation three of ``repro.analysis``: where PR 7's rules matched one
syntax tree and PR 8's followed call edges, this module infers a
*summary* per function — the set of determinism-relevant effects the
function (or anything it can reach) may perform — in the exhaustive
bottom-up spirit of the source paper's verification loop.  The effect
vocabulary is exactly the ways this codebase can break its bit-identical
contract:

``reads-wall-clock``
    ``time.time()`` / ``datetime.now()`` family — the value differs on
    every call, so it must never shape a stored payload.
``draws-unseeded-rng``
    module-level ``random.*`` / ``numpy.random.*`` draws, unseeded
    ``Random()`` / ``default_rng()`` constructors, ``os.urandom``,
    ``uuid.uuid4`` and friends.
``unordered-iteration``
    iterating a ``set``/``frozenset`` into an *ordered* output (a list,
    a joined string, a tuple) without an intervening ``sorted()`` —
    ``PYTHONHASHSEED`` reorders string sets between runs.
``float-reduction-order``
    ``sum()`` over an unordered collection: float addition is not
    associative, so the total depends on iteration order
    (``math.fsum`` is exactly rounded and exempt).
``reads-ambient-state``
    ``os.environ`` / hostname / cwd / platform reads — identical inputs
    on two fleet workers would produce different results.

Local effect sites are a pure function of one file's source; summaries
are the least fixpoint of ``summary(f) = local(f) ∪ ⋃ summary(callee)``
over *all* call edges, including executor submissions (off-thread work
still computes the result).  Every inferred effect carries a provenance
chain down to the primitive call site, which is what ``lint --explain``
prints and what the ``nondeterministic-keyed-output`` witness reports.

Deliberately *not* effects: ``time.monotonic()`` / ``perf_counter()``
(stage timing is measurement metadata, and misuse of the wall clock for
deadlines is ``monotonic-deadline``'s job) and ``os.getpid()`` (process
identity feeds staging-path uniqueness, never payloads).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

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
    module_key,
    walk_in_function,
)
from repro.analysis.rules import _SEEDED_NUMPY, _UNSEEDED_RANDOM

__all__ = [
    "EFFECT_NAMES",
    "DETERMINISM_EFFECTS",
    "EffectSite",
    "EffectEngine",
    "effect_engine",
    "scan_local_effects",
    "KeyedOutputRule",
    "UnorderedIterationLeakRule",
]


WALL_CLOCK = "reads-wall-clock"
UNSEEDED_RNG = "draws-unseeded-rng"
UNORDERED_ITER = "unordered-iteration"
FLOAT_REDUCTION = "float-reduction-order"
AMBIENT_STATE = "reads-ambient-state"

EFFECT_NAMES = (
    WALL_CLOCK,
    UNSEEDED_RNG,
    UNORDERED_ITER,
    FLOAT_REDUCTION,
    AMBIENT_STATE,
)

#: Effects that disqualify a function from feeding keyed store payloads.
DETERMINISM_EFFECTS = frozenset(EFFECT_NAMES)

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

_RNG_EXTRA_CALLS = {
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbelow",
    "secrets.choice",
}

_SEED_REQUIRED_CTORS = {"random.Random", "numpy.random.default_rng"}

_AMBIENT_CALLS = {
    "os.getenv",
    "os.getcwd",
    "os.getcwdb",
    "os.uname",
    "os.getlogin",
    "platform.node",
    "platform.platform",
    "platform.uname",
    "platform.machine",
    "platform.system",
    "platform.release",
    "socket.gethostname",
    "socket.getfqdn",
    "getpass.getuser",
}

_AMBIENT_ATTRS = {"os.environ"}

#: Builtin consumers that erase iteration order before it can leak.
_ORDER_ABSORBING = {"sorted", "min", "max", "len", "any", "all", "set", "frozenset"}

#: Builtin constructors that materialise iteration order.
_ORDER_MATERIALIZING = {"list", "tuple"}

#: set methods whose result is itself a set.
_SET_RETURNING_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}

#: ``for`` bodies count as ordered sinks when they do one of these.
_ORDERED_SINK_METHODS = {"append", "extend", "insert", "write", "appendleft"}


@dataclass(frozen=True)
class EffectSite:
    """One primitive effect occurrence at one source location."""

    effect: str
    path: str
    line: int
    detail: str

    def describe(self) -> str:
        return f"{self.detail} at {self.path}:{self.line}"


# ---------------------------------------------------------------------------
# local (per-file) effect scan


def scan_local_effects(
    info: FunctionInfo, table: Dict[str, str]
) -> List[EffectSite]:
    """Direct effect sites lexically inside one function body.

    Pure in the file's source text — cross-function propagation happens
    in :class:`EffectEngine`.
    """
    sites: List[EffectSite] = []
    path = info.source.path

    def add(effect: str, node: ast.AST, detail: str) -> None:
        sites.append(
            EffectSite(effect=effect, path=path, line=node.lineno, detail=detail)
        )

    for node in walk_in_function(info.node):
        if isinstance(node, ast.Call):
            name = resolve_name(node.func, table)
            if name in _WALL_CLOCK_CALLS:
                add(WALL_CLOCK, node, f"{name}()")
            elif name in _RNG_EXTRA_CALLS:
                add(UNSEEDED_RNG, node, f"{name}()")
            elif name in _SEED_REQUIRED_CTORS and not node.args and not node.keywords:
                add(UNSEEDED_RNG, node, f"unseeded {name}()")
            elif name is not None and name.startswith("random."):
                tail = name.split(".", 1)[1]
                if "." not in tail and tail in _UNSEEDED_RANDOM:
                    add(UNSEEDED_RNG, node, f"{name}() on the global RNG")
            elif name is not None and name.startswith("numpy.random."):
                tail = name.split("numpy.random.", 1)[1]
                if "." not in tail and tail not in _SEEDED_NUMPY:
                    add(UNSEEDED_RNG, node, f"{name}() on numpy's global RNG")
            elif name in _AMBIENT_CALLS:
                add(AMBIENT_STATE, node, f"{name}()")
            sites.extend(_order_sites(node, info, table))
        elif isinstance(node, ast.Attribute):
            name = resolve_name(node, table)
            if name in _AMBIENT_ATTRS:
                add(AMBIENT_STATE, node, name)
        elif isinstance(node, ast.For):
            if _is_set_typed(node.iter, info, table) and _loop_has_ordered_sink(node):
                add(
                    UNORDERED_ITER,
                    node,
                    f"for-loop over set {_render(node.iter)} feeds an "
                    "ordered sink",
                )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            sites.extend(_comprehension_sites(node, info, table))
    return sites


def _render(expr: ast.AST) -> str:
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


def _is_set_typed(
    expr: ast.expr,
    info: FunctionInfo,
    table: Dict[str, str],
    depth: int = 0,
) -> bool:
    """Conservative "statically a set" check: literals, ``set()`` /
    ``frozenset()`` constructors, set algebra, set-returning methods,
    ``os.sched_getaffinity``, single-assignment locals bound to any of
    those, and parameters annotated as sets."""
    if depth > 4:
        return False
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return func.id not in table  # shadowed import ⇒ not the builtin
        if resolve_name(func, table) == "os.sched_getaffinity":
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_RETURNING_METHODS
            and _is_set_typed(func.value, info, table, depth + 1)
        ):
            return True
        return False
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_typed(expr.left, info, table, depth + 1) or _is_set_typed(
            expr.right, info, table, depth + 1
        )
    if isinstance(expr, ast.Name):
        return _name_is_set(expr.id, info, table, depth)
    return False


def _name_is_set(
    name: str, info: FunctionInfo, table: Dict[str, str], depth: int
) -> bool:
    assigned: List[ast.expr] = []
    writes = 0
    for node in walk_in_function(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    writes += 1
                    assigned.append(node.value)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                writes += 1
                if getattr(node, "value", None) is not None:
                    assigned.append(node.value)
        elif isinstance(node, ast.For):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name) and leaf.id == name:
                    writes += 1
    if writes == 1 and assigned:
        return _is_set_typed(assigned[0], info, table, depth + 1)
    if writes:
        return False  # rebound: could hold anything by use time
    args = getattr(info.node, "args", None)
    if args is not None:
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.arg == name and arg.annotation is not None:
                for leaf in ast.walk(arg.annotation):
                    if isinstance(leaf, ast.Name) and leaf.id in (
                        "set",
                        "Set",
                        "frozenset",
                        "FrozenSet",
                        "AbstractSet",
                    ):
                        return True
    return False


def _order_sites(
    call: ast.Call, info: FunctionInfo, table: Dict[str, str]
) -> Iterator[EffectSite]:
    """Order-leaking *call* forms: ``list(s)``, ``tuple(s)``,
    ``sep.join(s)``, ``sum(s)``."""
    func = call.func
    path = info.source.path
    if (
        isinstance(func, ast.Name)
        and func.id in _ORDER_MATERIALIZING
        and func.id not in table
        and len(call.args) == 1
        and _is_set_typed(call.args[0], info, table)
    ):
        yield EffectSite(
            effect=UNORDERED_ITER,
            path=path,
            line=call.lineno,
            detail=f"{func.id}({_render(call.args[0])}) materialises set order",
        )
    elif (
        isinstance(func, ast.Attribute)
        and func.attr == "join"
        and len(call.args) == 1
        and _arg_iterates_set(call.args[0], info, table)
    ):
        yield EffectSite(
            effect=UNORDERED_ITER,
            path=path,
            line=call.lineno,
            detail=f"str.join over set {_render(call.args[0])}",
        )
    elif (
        isinstance(func, ast.Name)
        and func.id == "sum"
        and func.id not in table
        and call.args
        and _arg_iterates_set(call.args[0], info, table)
    ):
        yield EffectSite(
            effect=FLOAT_REDUCTION,
            path=path,
            line=call.lineno,
            detail=f"sum over unordered {_render(call.args[0])} "
            "(float addition is order-sensitive; sort first or use math.fsum)",
        )


def _arg_iterates_set(
    expr: ast.expr, info: FunctionInfo, table: Dict[str, str]
) -> bool:
    if _is_set_typed(expr, info, table):
        return True
    if isinstance(expr, (ast.GeneratorExp, ast.ListComp)) and expr.generators:
        return _is_set_typed(expr.generators[0].iter, info, table)
    return False


def _comprehension_sites(
    comp: ast.AST, info: FunctionInfo, table: Dict[str, str]
) -> Iterator[EffectSite]:
    generators = getattr(comp, "generators", [])
    if not generators or not _is_set_typed(generators[0].iter, info, table):
        return
    consumer = _consuming_call(comp, table)
    if consumer in _ORDER_ABSORBING:
        return
    if consumer == "sum" or consumer == "math.fsum":
        return  # the Call branch reports sum itself (fsum is exempt)
    if isinstance(comp, ast.GeneratorExp) and consumer is None:
        return  # un-materialised generator: order not yet observable
    if consumer in _ORDER_MATERIALIZING or isinstance(comp, ast.ListComp):
        yield EffectSite(
            effect=UNORDERED_ITER,
            path=info.source.path,
            line=comp.lineno,
            detail=f"comprehension over set {_render(generators[0].iter)} "
            "builds ordered output",
        )


def _consuming_call(node: ast.AST, table: Dict[str, str]) -> Optional[str]:
    """Name of the nearest enclosing call consuming ``node`` as an
    argument, canonicalised; ``None`` when the statement is reached
    first."""
    from repro.analysis.base import ancestors

    current = node
    for anc in ancestors(node):
        if isinstance(anc, ast.Call) and current in anc.args:
            name = resolve_name(anc.func, table)
            if name == "math.fsum":
                return "math.fsum"
            func = anc.func
            if isinstance(func, ast.Name):
                return func.id
            if isinstance(func, ast.Attribute):
                return func.attr
            return None
        if isinstance(anc, ast.stmt):
            return None
        current = anc
    return None


def _loop_has_ordered_sink(loop: ast.For) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _ORDERED_SINK_METHODS
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# bottom-up summaries with provenance


@dataclass(frozen=True)
class _Provenance:
    """Why a function has an effect: a direct site, or a call edge into
    a callee that has it."""

    site: Optional[EffectSite]
    callee: Optional[str]
    line: int


class EffectEngine:
    """Per-function effect summaries over a built call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.local: Dict[str, List[EffectSite]] = {}
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            table = graph.table(info.source)
            self.local[qualname] = scan_local_effects(info, table)
        self.summaries: Dict[str, FrozenSet[str]] = {}
        self._provenance: Dict[Tuple[str, str], _Provenance] = {}
        self._infer()

    # -- fixpoint ------------------------------------------------------

    def _infer(self) -> None:
        current: Dict[str, Set[str]] = {
            qualname: {site.effect for site in sites}
            for qualname, sites in self.local.items()
        }
        changed = True
        while changed:
            changed = False
            for qualname in self.graph.functions:
                mine = current.setdefault(qualname, set())
                for edge in self.graph.callees(qualname):
                    extra = current.get(edge.callee)
                    if extra and not extra <= mine:
                        mine |= extra
                        changed = True
        self.summaries = {
            qualname: frozenset(effects) for qualname, effects in current.items()
        }
        # deterministic provenance: prefer the earliest direct site,
        # else the earliest call edge into a callee with the effect
        for qualname in sorted(self.summaries):
            for effect in sorted(self.summaries[qualname]):
                direct = [s for s in self.local.get(qualname, []) if s.effect == effect]
                if direct:
                    best = min(direct, key=lambda s: (s.line, s.detail))
                    self._provenance[(qualname, effect)] = _Provenance(
                        site=best, callee=None, line=best.line
                    )
                    continue
                edges = [
                    edge
                    for edge in self.graph.callees(qualname)
                    if effect in self.summaries.get(edge.callee, frozenset())
                ]
                if edges:
                    best_edge = min(edges, key=lambda e: (e.line, e.callee))
                    self._provenance[(qualname, effect)] = _Provenance(
                        site=None, callee=best_edge.callee, line=best_edge.line
                    )

    # -- queries -------------------------------------------------------

    def summary(self, qualname: str) -> FrozenSet[str]:
        return self.summaries.get(qualname, frozenset())

    def chain(self, qualname: str, effect: str) -> List[str]:
        """Human-readable inference chain from ``qualname`` down to the
        primitive site for ``effect``."""
        steps: List[str] = []
        seen: Set[str] = set()
        current = qualname
        while current not in seen:
            seen.add(current)
            prov = self._provenance.get((current, effect))
            if prov is None:
                break
            info = self.graph.functions.get(current)
            where = f"{info.source.path}:{prov.line}" if info is not None else "?"
            if prov.site is not None:
                steps.append(f"{_short(current)}() -> {prov.site.describe()}")
                return steps
            steps.append(f"{_short(current)}() calls {_short(prov.callee)}() at {where}")
            current = prov.callee
        steps.append(f"{_short(current)}() [cycle reached]")
        return steps


def _short(qualname: Optional[str]) -> str:
    return (qualname or "?").rsplit("::", 1)[-1]


def effect_engine(project: Project) -> EffectEngine:
    """The project's effect engine, built once per lint run and cached
    on the Project (the two effect rules and ``--explain`` share it).
    """
    cached = getattr(project, "_effect_engine", None)
    if cached is None:
        cached = EffectEngine(callgraph(project))
        project._effect_engine = cached  # type: ignore[attr-defined]
    return cached


# ---------------------------------------------------------------------------
# nondeterministic-keyed-output


#: Entry points whose reachable put-sites are checked: the batch worker
#: and the pipeline itself (covers run_flow, run_many, serve, fleet).
_ROOT_FUNCTIONS = {"execute_one"}
_ROOT_METHODS = {("Pipeline", "run")}

_KEY_METHOD_NAMES = ("cache_key", "result_key")

#: Builtins that pass their argument through into the payload.
_PASSTHROUGH_BUILTINS = {"dict", "list", "tuple", "sorted", "reversed"}

_MAX_ORIGIN_DEPTH = 6


@register_rule("nondeterministic-keyed-output")
class KeyedOutputRule(Rule):
    """Whatever lands in the store under a config key must be pure.

    The store contract (PR 2) is that ``cache_key()``/``result_key()``
    *exactly determine* the payload: a warm hit replays bytes.  This
    rule walks every ``*.put(...)`` reachable from ``execute_one()`` /
    ``Pipeline.run()`` whose key derives from those methods, resolves
    which functions computed the payload (through locals, parameters,
    and stage-table indirection), and requires each to infer
    deterministic — reporting the full call chain and the effect's
    provenance chain as the witness.
    """

    invariant = (
        "every function whose result is persisted under a cache_key/"
        "result_key infers deterministic (no wall clock, unseeded RNG, "
        "unordered iteration, float-order or ambient-state effects)"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = callgraph(project)
        roots = [
            info
            for qualname, info in sorted(graph.functions.items())
            if self._is_root(info)
        ]
        if not roots:
            return
        engine = effect_engine(project)
        reach = self._reachable(graph, roots)
        reported: Set[Tuple[str, str, str, int]] = set()
        for qualname in sorted(reach):
            info = graph.functions[qualname]
            for call in sorted(
                (
                    node
                    for node in walk_in_function(info.node)
                    if isinstance(node, ast.Call)
                ),
                key=lambda n: n.lineno,
            ):
                if not self._is_keyed_put(call, info, graph):
                    continue
                payload = self._payload_expr(call)
                if payload is None:
                    continue
                origins = _payload_origins(payload, info, graph)
                for origin in sorted(origins, key=lambda o: o.qualname):
                    bad = engine.summary(origin.qualname) & DETERMINISM_EFFECTS
                    for effect in sorted(bad):
                        key = (origin.qualname, effect, info.source.path, call.lineno)
                        if key in reported:
                            continue
                        reported.add(key)
                        route = _route_to(reach, qualname)
                        effect_chain = engine.chain(origin.qualname, effect)
                        chain = tuple(
                            [" -> ".join(_short(q) + "()" for q in route)]
                            + [f"payload origin: {_short(origin.qualname)}()"]
                            + effect_chain
                        )
                        yield Finding(
                            rule=self.name,
                            path=info.source.path,
                            line=call.lineno,
                            message=(
                                f"keyed store payload from "
                                f"{_short(origin.qualname)}() has effect "
                                f"{effect} ({effect_chain[-1]}); results "
                                "persisted under cache_key/result_key must "
                                "be bit-identical across runs"
                            ),
                            severity=self.severity,
                            chain=chain,
                        )

    # -- roots and reachability ----------------------------------------

    @staticmethod
    def _is_root(info: FunctionInfo) -> bool:
        if info.cls is None and info.name in _ROOT_FUNCTIONS:
            return True
        return (info.cls, info.name) in _ROOT_METHODS

    @staticmethod
    def _reachable(
        graph: CallGraph, roots: Sequence[FunctionInfo]
    ) -> Dict[str, Optional[str]]:
        """BFS over all edges; maps reachable qualname -> BFS parent
        (None for roots) so witness routes are reconstructible."""
        parent: Dict[str, Optional[str]] = {}
        frontier = [info.qualname for info in roots]
        for qualname in frontier:
            parent.setdefault(qualname, None)
        while frontier:
            nxt: List[str] = []
            for qualname in frontier:
                for edge in sorted(
                    graph.callees(qualname), key=lambda e: (e.line, e.callee)
                ):
                    if edge.callee in parent or edge.callee not in graph.functions:
                        continue
                    parent[edge.callee] = qualname
                    nxt.append(edge.callee)
            frontier = nxt
        return parent

    # -- keyed put detection -------------------------------------------

    def _is_keyed_put(
        self, call: ast.Call, info: FunctionInfo, graph: CallGraph
    ) -> bool:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "put"):
            return False
        if len(call.args) + len(call.keywords) < 2:
            return False
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if self._mentions_key(arg, info, graph, depth=0):
                return True
        return False

    def _mentions_key(
        self, expr: ast.expr, info: FunctionInfo, graph: CallGraph, depth: int
    ) -> bool:
        if depth > 3:
            return False
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else (func.id if isinstance(func, ast.Name) else "")
            )
            if name in _KEY_METHOD_NAMES or name.endswith("_store_key"):
                return True
            # one hop into a project-local callee: `key = self._key_for(...)`
            for target in graph.resolve_call(node, info):
                for inner in walk_in_function(target.node):
                    if isinstance(inner, ast.Call):
                        f = inner.func
                        n = (
                            f.attr
                            if isinstance(f, ast.Attribute)
                            else (f.id if isinstance(f, ast.Name) else "")
                        )
                        if n in _KEY_METHOD_NAMES or n.endswith("_store_key"):
                            return True
        if isinstance(expr, ast.Name):
            for value in _assigned_values(expr.id, info):
                if self._mentions_key(value, info, graph, depth + 1):
                    return True
        return False

    @staticmethod
    def _payload_expr(call: ast.Call) -> Optional[ast.expr]:
        for kw in call.keywords:
            if kw.arg in ("payload", "value", "output"):
                return kw.value
        if call.args:
            return call.args[-1]
        return None


def _assigned_values(name: str, info: FunctionInfo) -> List[ast.expr]:
    """Every value expression assigned to local ``name`` (including
    tuple-unpack assignments, whose whole right side is returned)."""
    values: List[ast.expr] = []
    for node in walk_in_function(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and leaf.id == name:
                        values.append(node.value)
                        break
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == name
                and node.value is not None
            ):
                values.append(node.value)
    return values


def _is_param(name: str, info: FunctionInfo) -> bool:
    args = getattr(info.node, "args", None)
    if args is None:
        return False
    return any(
        arg.arg == name
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    )


def _payload_origins(
    expr: ast.expr,
    info: FunctionInfo,
    graph: CallGraph,
    depth: int = 0,
    visited: Optional[Set[Tuple[str, str]]] = None,
) -> List[FunctionInfo]:
    """Project functions whose return value can flow into ``expr``.

    Follows local assignments, container literals, pass-through builtins
    (``dict(output)``), stage-table indirection (``fn, _ = TABLE[name]``
    over a module-level dict of function references), and — for
    parameters — one interprocedural hop to every resolved caller's
    argument expression."""
    if visited is None:
        visited = set()
    if depth > _MAX_ORIGIN_DEPTH:
        return []
    origins: List[FunctionInfo] = []
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else None
        table = graph.table(info.source)
        if name in _PASSTHROUGH_BUILTINS and name not in table:
            for arg in expr.args:
                origins.extend(_payload_origins(arg, info, graph, depth + 1, visited))
            return origins
        resolved = graph.resolve_call(expr, info)
        if resolved:
            return resolved
        if isinstance(func, ast.Name):
            origins.extend(_table_targets(func.id, info, graph))
            if origins:
                return origins
        # indirect call (`handlers.get(name, fn)(ctx)`): any function
        # reference feeding the callee expression is a possible target
        for leaf in ast.walk(func):
            if isinstance(leaf, ast.Name):
                ref = graph.resolve_callable_ref(leaf, info)
                if ref is not None:
                    origins.append(ref)
                else:
                    origins.extend(_table_targets(leaf.id, info, graph))
        return origins
    if isinstance(expr, (ast.Dict,)):
        for value in expr.values:
            if value is not None:
                origins.extend(_payload_origins(value, info, graph, depth + 1, visited))
        return origins
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        for value in expr.elts:
            origins.extend(_payload_origins(value, info, graph, depth + 1, visited))
        return origins
    if isinstance(expr, ast.Name):
        key = (info.qualname, expr.id)
        if key in visited:
            return origins
        visited.add(key)
        for value in _assigned_values(expr.id, info):
            origins.extend(_payload_origins(value, info, graph, depth + 1, visited))
        if not origins and _is_param(expr.id, info):
            origins.extend(
                _caller_argument_origins(expr.id, info, graph, depth, visited)
            )
        return origins
    if isinstance(expr, ast.Attribute) and not (
        isinstance(expr.value, ast.Name) and expr.value.id == "self"
    ):
        # `output.assignment` — the origin is whatever produced `output`
        return _payload_origins(expr.value, info, graph, depth + 1, visited)
    return origins


def _table_targets(
    name: str, info: FunctionInfo, graph: CallGraph
) -> List[FunctionInfo]:
    """Resolve ``fn`` bound by ``fn, slot = _TABLE[stage]`` where
    ``_TABLE`` is a module-level dict: every function reference in the
    dict's values is a possible target (the pipeline's stage table)."""
    table_names: Set[str] = set()
    for node in walk_in_function(info.node):
        if not isinstance(node, ast.Assign):
            continue
        holds_name = any(
            isinstance(leaf, ast.Name) and leaf.id == name
            for target in node.targets
            for leaf in ast.walk(target)
        )
        if not holds_name:
            continue
        value = node.value
        if isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name):
            table_names.add(value.value.id)
    if not table_names:
        return []
    targets: List[FunctionInfo] = []
    module = module_key(info.source.path)
    tree = info.source.tree
    for stmt in tree.body:  # type: ignore[union-attr]
        if isinstance(stmt, ast.Assign):
            stmt_targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):  # TABLE: Dict[...] = {...}
            stmt_targets = [stmt.target]
        else:
            continue
        if not isinstance(stmt.value, ast.Dict):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id in table_names for t in stmt_targets
        ):
            continue
        for value in stmt.value.values:
            for leaf in ast.walk(value):
                if isinstance(leaf, ast.Name):
                    hit = graph.lookup_dotted(f"{module}.{leaf.id}")
                    if hit is not None:
                        targets.append(hit)
    return targets


def _caller_argument_origins(
    param: str,
    info: FunctionInfo,
    graph: CallGraph,
    depth: int,
    visited: Set[Tuple[str, str]],
) -> List[FunctionInfo]:
    """One interprocedural hop: find resolved call sites of ``info`` and
    trace the argument expression bound to ``param`` in each caller."""
    args = info.node.args  # type: ignore[union-attr]
    params = [a.arg for a in args.posonlyargs + args.args]
    origins: List[FunctionInfo] = []
    for edge in graph.callers(info.qualname):
        caller = graph.functions.get(edge.caller)
        if caller is None:
            continue
        for node in walk_in_function(caller.node):
            if not isinstance(node, ast.Call):
                continue
            if info not in graph.resolve_call(node, caller):
                continue
            bound = _bind_argument(node, params, param, caller)
            if bound is not None:
                origins.extend(
                    _payload_origins(bound, caller, graph, depth + 1, visited)
                )
    return origins


def _bind_argument(
    call: ast.Call, params: List[str], wanted: str, caller: FunctionInfo
) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == wanted:
            return kw.value
    effective = params[1:] if params and params[0] in ("self", "cls") else params
    # attribute calls (`self._store_put(...)`) pass the receiver implicitly
    if not isinstance(call.func, ast.Attribute):
        effective = params
    try:
        index = effective.index(wanted)
    except ValueError:
        return None
    if index < len(call.args):
        arg = call.args[index]
        return None if isinstance(arg, ast.Starred) else arg
    return None


def _route_to(parents: Dict[str, Optional[str]], qualname: str) -> List[str]:
    route = [qualname]
    seen = {qualname}
    current = parents.get(qualname)
    while current is not None and current not in seen:
        route.append(current)
        seen.add(current)
        current = parents.get(current)
    return list(reversed(route))


# ---------------------------------------------------------------------------
# unordered-iteration-leak


@register_rule("unordered-iteration-leak")
class UnorderedIterationLeakRule(Rule):
    """No set-iteration order reaches rows, events, frames, or payloads.

    Store payloads, NDJSON event streams, and fleet wire frames are all
    compared byte-for-byte across workers and runs; a ``list`` (or
    joined string, or yielded sequence) built by iterating a ``set``
    inside ``store/``, ``serve/``, or ``fleet/`` reorders under
    ``PYTHONHASHSEED`` and breaks that parity.  An intervening
    ``sorted()`` fixes the order; order-insensitive reductions
    (``len``/``min``/``max``/``any``/``all``) never leak it.
    ``sum()`` over a set is additionally flagged as float-order
    sensitive (``float-reduction-order``).
    """

    invariant = (
        "set/dict iteration order never flows into lists, NDJSON "
        "events, wire frames, or store payloads in store//serve//fleet/ "
        "without an intervening sorted()"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if not source.in_dir("store", "serve", "fleet"):
            return
        graph = callgraph(project)
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info = graph.function_for(node)
            if info is None:
                continue
            table = graph.table(source)
            for site in scan_local_effects(info, table):
                if site.effect not in (UNORDERED_ITER, FLOAT_REDUCTION):
                    continue
                yield Finding(
                    rule=self.name,
                    path=source.path,
                    line=site.line,
                    message=(
                        f"{site.detail} in {info.name}(); ordered outputs "
                        "(rows, events, frames, payloads) must not depend "
                        "on set iteration order — wrap the iterable in "
                        "sorted()"
                    ),
                    severity=self.severity,
                    chain=(site.describe(),),
                )

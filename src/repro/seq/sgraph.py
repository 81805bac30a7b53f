"""s-graph extraction (paper Section 4.2.1).

An *s-graph* is a directed graph whose vertices are the flip-flops of a
sequential circuit and whose edges record structural dependencies: an
edge ``u -> v`` exists when a purely combinational path runs from the
output of latch ``u`` to the data input of latch ``v``.  MFVS-based
partitioning (Chakradhar et al., DAC '94 — reference [2]) operates on
this graph.

We keep our own tiny digraph class so the transformation and MFVS code
can mutate weights/supervertices freely without dragging in networkx.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import SequentialError
from repro.network.netlist import GateType, LogicNetwork


class SGraph:
    """Directed graph over latch names with weighted (super)vertices.

    ``weight[v]`` counts how many original flip-flops a vertex stands
    for (1 until the symmetry transformation groups vertices), and
    ``members[v]`` lists them.
    """

    def __init__(self) -> None:
        self.succ: Dict[str, Set[str]] = {}
        self.pred: Dict[str, Set[str]] = {}
        self.weight: Dict[str, int] = {}
        self.members: Dict[str, Tuple[str, ...]] = {}

    # -- construction ----------------------------------------------------
    def add_vertex(self, name: str, weight: int = 1, members: Optional[Iterable[str]] = None) -> None:
        if name in self.succ:
            raise SequentialError(f"duplicate s-graph vertex {name!r}")
        self.succ[name] = set()
        self.pred[name] = set()
        self.weight[name] = weight
        self.members[name] = tuple(members) if members is not None else (name,)

    def add_edge(self, u: str, v: str) -> None:
        if u not in self.succ or v not in self.succ:
            raise SequentialError(f"edge ({u!r}, {v!r}) references unknown vertex")
        self.succ[u].add(v)
        self.pred[v].add(u)

    def remove_vertex(self, name: str) -> None:
        for s in self.succ.pop(name):
            self.pred[s].discard(name)
        for p in self.pred.pop(name):
            self.succ[p].discard(name)
        del self.weight[name]
        del self.members[name]

    # -- queries ------------------------------------------------------------
    @property
    def vertices(self) -> List[str]:
        return list(self.succ)

    @property
    def n_vertices(self) -> int:
        return len(self.succ)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.succ.values())

    def has_self_loop(self, v: str) -> bool:
        return v in self.succ[v]

    def edges(self) -> List[Tuple[str, str]]:
        return [(u, v) for u, ss in self.succ.items() for v in ss]

    def copy(self) -> "SGraph":
        g = SGraph()
        for v in self.succ:
            g.add_vertex(v, self.weight[v], self.members[v])
        for u, v in self.edges():
            g.add_edge(u, v)
        return g

    def is_acyclic(self) -> bool:
        """Kahn's algorithm cycle check."""
        indeg = {v: len(self.pred[v]) for v in self.succ}
        queue = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for s in self.succ[v]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
        return seen == len(self.succ)

    def subgraph_without(self, removed: Iterable[str]) -> "SGraph":
        removed_set = set(removed)
        g = SGraph()
        for v in self.succ:
            if v not in removed_set:
                g.add_vertex(v, self.weight[v], self.members[v])
        for u, v in self.edges():
            if u not in removed_set and v not in removed_set:
                g.add_edge(u, v)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SGraph {self.n_vertices} vertices, {self.n_edges} edges>"


def extract_sgraph(network: LogicNetwork) -> SGraph:
    """Build the s-graph of a sequential network.

    Vertices are latch names; an edge u -> v exists when latch v's data
    cone (stopping at latch boundaries) contains latch u's output.
    """
    graph = SGraph()
    latches = network.latches
    for latch in latches:
        graph.add_vertex(latch.name)
    latch_names = {latch.name for latch in latches}
    # For each latch, walk its data input cone up to sources/latches.
    for latch in latches:
        seen: Set[str] = set()
        stack = [latch.fanins[0]]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            node = network.node(name)
            if node.gate_type is GateType.LATCH:
                graph.add_edge(name, latch.name)
                continue
            if node.gate_type.is_source:
                continue
            stack.extend(fi for fi in node.fanins if fi not in seen)
    return graph


def sgraph_from_edges(
    edges: Iterable[Tuple[str, str]], vertices: Optional[Iterable[str]] = None
) -> SGraph:
    """Convenience constructor for tests and figures."""
    g = SGraph()
    declared = list(vertices) if vertices is not None else []
    for v in declared:
        g.add_vertex(v)
    for u, v in edges:
        if u not in g.succ:
            g.add_vertex(u)
        if v not in g.succ:
            g.add_vertex(v)
        g.add_edge(u, v)
    return g

"""Minimum feedback vertex set solvers.

MFVS is NP-complete; the paper approximates it with the testing-domain
heuristic of [2] enhanced by the symmetry transformation.  We provide:

* :func:`greedy_mfvs` — reduce (T0/T1/T2 [+ symmetry]) to a fixpoint,
  then repeatedly cut the most profitable (super)vertex.  Supervertices
  are processed in descending weight order, as the paper prescribes.
* :func:`exact_mfvs` — branch-and-bound, exact for small graphs; used
  to validate the heuristic in tests and ablations.
* :func:`mfvs` — dispatcher with an ``enhanced`` switch (symmetry
  on/off) so benches can measure the fourth transformation's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SequentialError
from repro.seq.sgraph import SGraph
from repro.seq.transforms import reduce_graph


@dataclass
class MfvsResult:
    """A feedback vertex set over the original flip-flop names."""

    feedback: List[str]
    method: str
    reductions: Dict[str, int] = field(default_factory=dict)
    supervertices_cut: int = 0

    @property
    def size(self) -> int:
        return len(self.feedback)


def _cut_score(graph: SGraph, v: str) -> Tuple[float, int, str]:
    """Greedy ranking: prefer heavy supervertices first (paper's rule),
    then high cycle connectivity per unit weight."""
    indeg = len(graph.pred[v])
    outdeg = len(graph.succ[v])
    return (
        float(graph.weight[v]),
        indeg * outdeg,
        v,  # deterministic tie-break
    )


def greedy_mfvs(graph: SGraph, use_symmetry: bool = True) -> MfvsResult:
    """Reduction-based greedy FVS (enhanced MFVS when ``use_symmetry``)."""
    reduction = reduce_graph(graph, use_symmetry=use_symmetry)
    g = reduction.graph
    feedback: List[str] = list(reduction.forced_fvs)
    counts = dict(reduction.applications)
    supers_cut = 0

    while g.n_vertices > 0:
        if g.is_acyclic():
            break
        # Process supervertices in descending weight; among equals take
        # the best-connected vertex.
        candidates = [v for v in g.vertices if g.succ[v] or g.pred[v]]
        if not candidates:
            break
        pick = max(candidates, key=lambda v: _cut_score(g, v))
        if g.weight[pick] > 1:
            supers_cut += 1
        feedback.extend(g.members[pick])
        g.remove_vertex(pick)
        inner = reduce_graph(g, use_symmetry=use_symmetry)
        g = inner.graph
        feedback.extend(inner.forced_fvs)
        for k, n in inner.applications.items():
            counts[k] = counts.get(k, 0) + n

    return MfvsResult(
        feedback=sorted(set(feedback)),
        method="greedy-enhanced" if use_symmetry else "greedy",
        reductions=counts,
        supervertices_cut=supers_cut,
    )


def exact_mfvs(graph: SGraph, max_vertices: int = 24) -> MfvsResult:
    """Exact weighted MFVS by branch-and-bound (small graphs only).

    The bound is the total member count of the best solution so far;
    reductions are applied at every node of the search tree, which makes
    the search practical up to a couple dozen vertices.
    """
    if graph.n_vertices > max_vertices:
        raise SequentialError(
            f"exact MFVS limited to {max_vertices} vertices; "
            f"graph has {graph.n_vertices}"
        )

    best: List[Optional[List[str]]] = [None]

    def cost(sol: List[str]) -> int:
        return len(sol)

    def search(g: SGraph, picked: List[str]) -> None:
        reduction = reduce_graph(g, use_symmetry=False)
        picked = picked + reduction.forced_fvs
        g = reduction.graph
        if best[0] is not None and cost(picked) >= cost(best[0]):
            return
        if g.is_acyclic():
            if best[0] is None or cost(picked) < cost(best[0]):
                best[0] = picked
            return
        # Branch on a shortest cycle found by BFS from some vertex.
        cycle = _find_cycle(g)
        if cycle is None:  # pragma: no cover - acyclic handled above
            if best[0] is None or cost(picked) < cost(best[0]):
                best[0] = picked
            return
        for v in cycle:
            sub = g.subgraph_without([v])
            search(sub, picked + list(g.members[v]))

    search(graph.copy(), [])
    assert best[0] is not None
    return MfvsResult(feedback=sorted(set(best[0])), method="exact")


def _find_cycle(graph: SGraph) -> Optional[List[str]]:
    """A shortest directed cycle (vertex list), or None when acyclic."""
    best_cycle: Optional[List[str]] = None
    for start in graph.vertices:
        # BFS from start over successors, looking for a path back.
        parent: Dict[str, Optional[str]] = {start: None}
        queue = [start]
        found = False
        while queue and not found:
            u = queue.pop(0)
            for w in graph.succ[u]:
                if w == start:
                    # reconstruct path start .. u
                    path = [u]
                    cur = parent[u]
                    while cur is not None:
                        path.append(cur)
                        cur = parent[cur]
                    path.reverse()
                    cycle = path
                    if best_cycle is None or len(cycle) < len(best_cycle):
                        best_cycle = cycle
                    found = True
                    break
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        if best_cycle is not None and len(best_cycle) == 1:
            break
    return best_cycle


def mfvs(
    graph: SGraph,
    method: str = "greedy",
    enhanced: bool = True,
    exact_limit: int = 24,
) -> MfvsResult:
    """Dispatch: ``greedy`` (default, paper's enhanced heuristic),
    ``exact``, or ``auto`` (exact when small enough)."""
    if method == "exact":
        return exact_mfvs(graph, max_vertices=exact_limit)
    if method == "auto":
        if graph.n_vertices <= exact_limit:
            return exact_mfvs(graph, max_vertices=exact_limit)
        return greedy_mfvs(graph, use_symmetry=enhanced)
    if method == "greedy":
        return greedy_mfvs(graph, use_symmetry=enhanced)
    raise SequentialError(f"unknown MFVS method {method!r}")


def verify_feedback_set(graph: SGraph, feedback: List[str]) -> bool:
    """True iff removing ``feedback`` leaves the graph acyclic."""
    return graph.subgraph_without(feedback).is_acyclic()

"""MFVS graph transformations (paper Figures 8 and 9).

The classic reductions from the partial-scan literature ([2] in the
paper) shrink an s-graph without changing its minimum feedback vertex
set:

* **T0 (sink/source removal)** — a vertex with no predecessors or no
  successors lies on no cycle; drop it (Fig. 8a/8c "ignore X").
* **T1 (self-loop)** — a vertex with a self-loop is in every feedback
  set; move it into the MFVS and delete it (Fig. 8b).
* **T2 (bypass)** — a vertex without a self-loop that has exactly one
  predecessor or exactly one successor can be bypassed: connect its
  predecessors to its successors and remove it.

The paper's contribution is a **fourth, symmetry-based transformation**
(Fig. 9): vertices with identical fanin sets *and* identical fanout
sets are interchangeable — phase-assignment duplication produces many
such twins — so they are merged into a single *weighted supervertex*.
The downstream MFVS heuristic then treats the weight as the cost of
cutting the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.seq.sgraph import SGraph


@dataclass
class ReductionResult:
    """Outcome of exhaustively applying the reductions to a graph."""

    graph: SGraph
    forced_fvs: List[str]  # original flip-flop names forced by self-loops
    applications: Dict[str, int] = field(default_factory=dict)


def apply_t0_sources_sinks(graph: SGraph) -> int:
    """Repeatedly delete vertices with no preds or no succs; returns count."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for v in list(graph.vertices):
            if graph.has_self_loop(v):
                continue
            if not graph.pred[v] or not graph.succ[v]:
                graph.remove_vertex(v)
                removed += 1
                changed = True
    return removed


def apply_t1_self_loops(graph: SGraph, forced: List[str]) -> int:
    """Move self-loop vertices into the forced FVS; returns count."""
    count = 0
    for v in list(graph.vertices):
        if graph.has_self_loop(v):
            forced.extend(graph.members[v])
            graph.remove_vertex(v)
            count += 1
    return count


def apply_t2_bypass(graph: SGraph) -> int:
    """Bypass single-pred or single-succ vertices; returns count.

    Bypassing may create self-loops (u -> X -> u collapses to a u
    self-loop), which a subsequent T1 pass picks up.
    """
    count = 0
    changed = True
    while changed:
        changed = False
        for v in list(graph.vertices):
            if graph.has_self_loop(v):
                continue
            preds = graph.pred[v] - {v}
            succs = graph.succ[v] - {v}
            if len(preds) == 1 or len(succs) == 1:
                graph.remove_vertex(v)
                for p in preds:
                    for s in succs:
                        graph.add_edge(p, s)
                count += 1
                changed = True
    return count


def apply_symmetry_grouping(graph: SGraph) -> int:
    """The paper's fourth transformation: merge fanin/fanout twins.

    Vertices whose predecessor sets and successor sets (excluding the
    group itself) are identical become one supervertex whose weight is
    the sum of member weights.  Returns the number of groups merged.
    """
    # Signature excludes candidate group members only when the group is
    # mutually non-adjacent; to keep it simple and sound we group
    # vertices with *identical* raw pred/succ sets (no self-loops).
    signature: Dict[Tuple[FrozenSet[str], FrozenSet[str]], List[str]] = {}
    for v in graph.vertices:
        if graph.has_self_loop(v):
            continue
        key = (frozenset(graph.pred[v]), frozenset(graph.succ[v]))
        signature.setdefault(key, []).append(v)

    # Earlier merges rename vertices, so neighbour references recorded in
    # the signatures must be chased through this map.
    rename: Dict[str, str] = {}

    def resolve(v: str) -> str:
        while v in rename:
            v = rename[v]
        return v

    merged_groups = 0
    for (preds, succs), group in signature.items():
        group = [v for v in group if v in graph.succ]
        if len(group) < 2:
            continue
        merged_groups += 1
        name = "+".join(sorted(group))
        weight = sum(graph.weight[v] for v in group)
        members: List[str] = []
        for v in group:
            members.extend(graph.members[v])
        for v in group:
            graph.remove_vertex(v)
            rename[v] = name
        graph.add_vertex(name, weight=weight, members=members)
        group_set = set(group)
        for p in preds:
            if p in group_set:
                continue
            target = resolve(p)
            if target in graph.succ:
                graph.add_edge(target, name)
        for s in succs:
            if s in group_set:
                continue
            target = resolve(s)
            if target in graph.succ:
                graph.add_edge(name, target)
        # Group members adjacent to each other produce a self-loop on
        # the supervertex, correctly signalling an internal cycle.
        if preds & group_set or succs & group_set:
            graph.add_edge(name, name)
    return merged_groups


def reduce_graph(graph: SGraph, use_symmetry: bool = True) -> ReductionResult:
    """Apply T0/T1/T2 (+ symmetry) to a fixpoint.

    The input graph is copied; the reduced copy, the forced FVS members
    and per-transformation application counts are returned.
    """
    g = graph.copy()
    forced: List[str] = []
    counts = {"t0": 0, "t1": 0, "t2": 0, "symmetry": 0}
    changed = True
    while changed:
        changed = False
        n = apply_t1_self_loops(g, forced)
        counts["t1"] += n
        changed = changed or n > 0
        n = apply_t0_sources_sinks(g)
        counts["t0"] += n
        changed = changed or n > 0
        n = apply_t2_bypass(g)
        counts["t2"] += n
        changed = changed or n > 0
        if use_symmetry:
            n = apply_symmetry_grouping(g)
            counts["symmetry"] += n
            changed = changed or n > 0
    return ReductionResult(graph=g, forced_fvs=forced, applications=counts)


def figure9_graph() -> SGraph:
    """The strongly connected example of Figure 9.

    Vertices A, B, E share identical fanins/fanouts ({C, D} both ways),
    and C, D likewise ({A, B, E} both ways); none of the classic
    transformations applies, but symmetry grouping reduces the graph to
    supervertices ABE (weight 3) and CD (weight 2).
    """
    from repro.seq.sgraph import sgraph_from_edges

    edges = []
    for x in ("A", "B", "E"):
        for y in ("C", "D"):
            edges.append((x, y))
            edges.append((y, x))
    return sgraph_from_edges(edges, vertices=["A", "B", "C", "D", "E"])

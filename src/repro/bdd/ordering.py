"""Domino-aware BDD variable ordering (paper Section 4.2.2).

The paper orders BDD variables by two principles:

1. Variables appear in the **reverse** of the order in which circuit
   inputs are first visited during a topological traversal of the gates.
2. Gates at the same topological level are traversed in **decreasing
   order of fanout-cone cardinality**.

Together these push variables that are close to the primary inputs or
that feed large cones toward the *bottom* of the BDD, maximising node
sharing in the flat, highly convergent cones typical of control domino
blocks.

This module implements that heuristic plus two reference orderings used
by the Figure 10 reproduction and the ablation benches: the naive
topological (first-visit, *not* reversed) ordering and a deterministic
"disturbed" ordering that interleaves signal groups.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.network.netlist import GateType, LogicNetwork
from repro.network.topo import fanout_cone_sizes, levels


def _first_visit_order(
    network: LogicNetwork, roots: Optional[Sequence[str]] = None
) -> List[str]:
    """Source names in the order first touched by a level-by-level
    traversal, visiting same-level gates in decreasing fanout-cone size."""
    lv = levels(network)
    cone_size = fanout_cone_sizes(network)
    gate_names = [n.name for n in network.gates]
    if roots is not None:
        from repro.network.topo import transitive_fanin

        cone = transitive_fanin(network, roots, include_sources=True)
        gate_names = [g for g in gate_names if g in cone]
    # Sort gates by (level asc, cone size desc, name) for determinism.
    gate_names.sort(key=lambda g: (lv[g], -cone_size[g], g))
    visited: Set[str] = set()
    order: List[str] = []
    source_like = {
        n.name
        for n in network.nodes.values()
        if n.gate_type is GateType.INPUT or n.gate_type is GateType.LATCH
    }
    for g in gate_names:
        for fi in network.nodes[g].fanins:
            if fi in source_like and fi not in visited:
                visited.add(fi)
                order.append(fi)
    # Sources never read by any gate (e.g. dangling PIs) go last.
    for name in network.inputs:
        if name not in visited:
            visited.add(name)
            order.append(name)
    for latch in network.latches:
        if latch.name not in visited:
            visited.add(latch.name)
            order.append(latch.name)
    return order


def domino_variable_order(
    network: LogicNetwork, roots: Optional[Sequence[str]] = None
) -> List[str]:
    """The paper's ordering: reverse first-visit order.

    Index 0 of the returned list is the BDD *top* variable.  Restricting
    to ``roots`` orders only the support of those nodes.
    """
    return list(reversed(_first_visit_order(network, roots)))


def naive_topological_order(
    network: LogicNetwork, roots: Optional[Sequence[str]] = None
) -> List[str]:
    """First-visit order without reversal (the Figure 10 middle row)."""
    return _first_visit_order(network, roots)


def disturbed_order(
    network: LogicNetwork,
    roots: Optional[Sequence[str]] = None,
    stride: int = 2,
) -> List[str]:
    """Deterministic ordering that breaks natural signal grouping.

    Interleaves the reversed first-visit order with stride ``stride``:
    variables ``[a, b, c, d, e]`` become ``[a, c, e, b, d]``.  Models
    the "unnaturally sandwiched" ordering in the bottom row of
    Figure 10.
    """
    base = domino_variable_order(network, roots)
    out: List[str] = []
    for offset in range(stride):
        out.extend(base[offset::stride])
    return out


def declaration_order(
    network: LogicNetwork, roots: Optional[Sequence[str]] = None
) -> List[str]:
    """PI declaration order — the ordering a naive tool would use."""
    order = list(network.inputs) + [latch.name for latch in network.latches]
    if roots is not None:
        from repro.network.topo import transitive_fanin

        cone = transitive_fanin(network, roots, include_sources=True)
        order = [v for v in order if v in cone]
    return order


ORDERING_STRATEGIES = {
    "domino": domino_variable_order,
    "topological": naive_topological_order,
    "disturbed": disturbed_order,
    "declaration": declaration_order,
}


def order_variables(
    network: LogicNetwork,
    strategy: str = "domino",
    roots: Optional[Sequence[str]] = None,
) -> List[str]:
    """Dispatch over the named ordering strategies."""
    try:
        fn = ORDERING_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown ordering strategy {strategy!r}; "
            f"choose from {sorted(ORDERING_STRATEGIES)}"
        ) from None
    return fn(network, roots)

"""Topological utilities over :class:`~repro.network.netlist.LogicNetwork`.

Levels, transitive fanin/fanout cones, cone overlap (the paper's
O(i,j)), and per-output support sets.  These are the structural
quantities the phase-assignment cost function of Section 4.1 consumes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.network.netlist import GateType, LogicNetwork


def levels(network: LogicNetwork) -> Dict[str, int]:
    """Topological level per node: sources are level 0, gates are
    1 + max(fanin levels)."""
    level: Dict[str, int] = {}
    for name in network.topological_order():
        node = network.nodes[name]
        if node.gate_type.is_comb_source:
            level[name] = 0
        else:
            level[name] = 1 + max(level[fi] for fi in node.fanins)
    return level


def depth(network: LogicNetwork) -> int:
    """Maximum topological level in the network (0 for source-only nets)."""
    lv = levels(network)
    return max(lv.values()) if lv else 0


def transitive_fanin(
    network: LogicNetwork,
    roots: Iterable[str],
    include_sources: bool = True,
    stop_at_latches: bool = True,
) -> Set[str]:
    """Set of node names in the transitive fanin of ``roots`` (roots included).

    When ``stop_at_latches`` is true the traversal treats latch outputs
    as sources (does not walk through the latch data input), matching
    how the paper treats partitioned combinational blocks.
    """
    seen: Set[str] = set()
    stack = [r for r in roots]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        node = network.node(name)
        if node.gate_type.is_source:
            continue
        if node.gate_type is GateType.LATCH and stop_at_latches:
            continue
        stack.extend(fi for fi in node.fanins if fi not in seen)
    if not include_sources:
        seen = {
            n
            for n in seen
            if not network.nodes[n].gate_type.is_source
            and network.nodes[n].gate_type is not GateType.LATCH
        }
    return seen


def transitive_fanout(
    network: LogicNetwork,
    roots: Iterable[str],
    fanouts: Optional[Mapping[str, List[str]]] = None,
    stop_at_latches: bool = True,
) -> Set[str]:
    """Set of node names in the transitive fanout of ``roots`` (roots included)."""
    if fanouts is None:
        fanouts = network.fanout_map()
    seen: Set[str] = set()
    stack = [r for r in roots]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        for fo in fanouts[name]:
            if fo in seen:
                continue
            if network.nodes[fo].gate_type is GateType.LATCH and stop_at_latches:
                seen.add(fo)
                continue
            stack.append(fo)
    return seen


def output_cones(network: LogicNetwork, include_sources: bool = False) -> Dict[str, Set[str]]:
    """Transitive-fanin cone D_i for every primary output (keyed by PO name).

    By default the cone contains only logic nodes (the paper's |D_i|
    counts logic in the domino block); pass ``include_sources=True`` to
    include PIs/latches.
    """
    cones: Dict[str, Set[str]] = {}
    for po, driver in network.outputs:
        cones[po] = transitive_fanin(network, [driver], include_sources=include_sources)
    return cones


def cone_overlap(cone_i: Set[str], cone_j: Set[str]) -> float:
    """The paper's overlap measure  O(i,j) = |D_i ∩ D_j| / (|D_i| + |D_j|).

    Returns 0.0 when both cones are empty.
    """
    denom = len(cone_i) + len(cone_j)
    if denom == 0:
        return 0.0
    return len(cone_i & cone_j) / denom


def support(network: LogicNetwork, root: str) -> List[str]:
    """Ordered list of source names (PIs, latch outputs, constants excluded)
    in the transitive fanin of ``root``.  Order follows the input
    declaration order for PIs, then latch declaration order."""
    cone = transitive_fanin(network, [root], include_sources=True)
    ordered: List[str] = []
    for name in network.inputs:
        if name in cone:
            ordered.append(name)
    for latch in network.latches:
        if latch.name in cone:
            ordered.append(latch.name)
    return ordered


def fanout_cone_sizes(network: LogicNetwork) -> Dict[str, int]:
    """|TFO(n)| per node — used by the BDD variable-ordering heuristic.

    One reverse-topological pass over int bitsets: a node's cone is its
    own bit ORed with its fanouts' cones.  A latch fanout adds its bit
    but is not walked through, as in :func:`transitive_fanout`.
    """
    fanouts = network.fanout_map()
    order = network.topological_order()
    bit = {name: 1 << i for i, name in enumerate(order)}
    cones: Dict[str, int] = {}
    result: Dict[str, int] = {}
    for name in reversed(order):
        cone = bit[name]
        for fo in fanouts[name]:
            if network.nodes[fo].gate_type is GateType.LATCH:
                cone |= bit[fo]
            else:
                cone |= cones[fo]
        cones[name] = cone
        result[name] = cone.bit_count()
    return result


def check_inverter_free(network: LogicNetwork) -> List[str]:
    """Return the names of nodes that a domino block may not contain.

    A legal domino block consists solely of AND/OR/BUF gates (plus
    sources).  NOT/NAND/NOR/XOR/XNOR/MUX/SOP nodes are offenders.
    """
    offenders = []
    for node in network.nodes.values():
        if node.gate_type.is_comb_source:
            continue
        if not node.gate_type.is_monotone:
            offenders.append(node.name)
    return offenders

"""Structural hashing (strash).

Merges structurally identical gates: two nodes with the same gate type
and the same (canonically ordered) fanins compute the same function, so
one can replace the other.  Run before the phase transform, this
maximises the sharing the pairwise cost function's overlap term O(i,j)
reasons about, and mirrors the sharing a real technology-independent
synthesis front-end would deliver.

Commutative gates (AND/OR/XOR/XNOR/NAND/NOR) hash their fanins as a
sorted tuple; NOT/BUF hash the single fanin; MUX and SOP nodes hash
positionally (MUX operands are not interchangeable; SOP covers are
compared literally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.network.netlist import GateType, LogicNetwork

_COMMUTATIVE = (
    GateType.AND,
    GateType.OR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NAND,
    GateType.NOR,
)


@dataclass
class StrashResult:
    """Outcome of structural hashing."""

    network: LogicNetwork
    merged: int  # number of gate instances removed
    classes: int  # number of distinct structural classes found


def _node_key(node, resolved_fanins: Tuple[str, ...]) -> Optional[tuple]:
    t = node.gate_type
    if t in _COMMUTATIVE:
        return (t, tuple(sorted(resolved_fanins)))
    if t in (GateType.NOT, GateType.BUF):
        return (t, resolved_fanins)
    if t is GateType.MUX:
        return (t, resolved_fanins)
    if t is GateType.SOP:
        cover = node.cover
        return (t, resolved_fanins, tuple(cover.cubes), cover.output_value)
    if t in (GateType.CONST0, GateType.CONST1):
        return (t,)
    return None  # sources are never merged


def structural_hash(network: LogicNetwork) -> StrashResult:
    """Merge structurally identical gates; returns a new network.

    The pass runs to a fixpoint implicitly: processing in topological
    order with fanins resolved through the replacement map means
    cascaded duplicates collapse in a single sweep.
    """
    net = network.copy()
    replacement: Dict[str, str] = {}
    seen: Dict[tuple, str] = {}
    merged = 0

    def resolve(name: str) -> str:
        while name in replacement:
            name = replacement[name]
        return name

    for name in net.topological_order():
        node = net.nodes[name]
        if node.gate_type in (GateType.INPUT, GateType.LATCH):
            continue
        node.fanins = [resolve(fi) for fi in node.fanins]
        key = _node_key(node, tuple(node.fanins))
        if key is None:
            continue
        keeper = seen.get(key)
        if keeper is None:
            seen[key] = name
        else:
            replacement[name] = keeper
            merged += 1

    # Rewrite remaining references and outputs, then sweep.
    for node in net.nodes.values():
        node.fanins = [resolve(fi) for fi in node.fanins]
    net.outputs = [(po, resolve(driver)) for po, driver in net.outputs]

    from repro.network.ops import sweep_dead_nodes

    swept = sweep_dead_nodes(net)
    return StrashResult(network=swept, merged=merged, classes=len(seen))

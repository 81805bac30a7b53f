"""Graphviz DOT export for networks, domino implementations and s-graphs.

Pure string generation — no graphviz dependency.  Render with e.g.
``dot -Tsvg out.dot -o out.svg``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.network.duplication import DominoImplementation, Polarity
from repro.network.netlist import GateType, LogicNetwork
from repro.seq.sgraph import SGraph

_SHAPES = {
    GateType.INPUT: "triangle",
    GateType.CONST0: "plaintext",
    GateType.CONST1: "plaintext",
    GateType.NOT: "invtriangle",
    GateType.BUF: "cds",
    GateType.AND: "box",
    GateType.NAND: "box",
    GateType.OR: "ellipse",
    GateType.NOR: "ellipse",
    GateType.XOR: "hexagon",
    GateType.XNOR: "hexagon",
    GateType.MUX: "trapezium",
    GateType.SOP: "component",
    GateType.LATCH: "Msquare",
}


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def network_to_dot(
    network: LogicNetwork,
    name: Optional[str] = None,
    probabilities: Optional[Dict[str, float]] = None,
) -> str:
    """DOT digraph of a logic network.

    When ``probabilities`` is given, node labels carry the signal
    probability — handy for eyeballing where the switching lives.
    """
    lines = [f"digraph {_quote(name or network.name)} {{", "  rankdir=LR;"]
    for node in network.nodes.values():
        shape = _SHAPES.get(node.gate_type, "box")
        label = f"{node.name}\\n{node.gate_type.value}"
        if probabilities and node.name in probabilities:
            label += f"\\np={probabilities[node.name]:.3f}"
        lines.append(f"  {_quote(node.name)} [shape={shape}, label={_quote(label)}];")
    for node in network.nodes.values():
        for fi in node.fanins:
            style = " [style=dashed]" if node.gate_type is GateType.LATCH else ""
            lines.append(f"  {_quote(fi)} -> {_quote(node.name)}{style};")
    for po, driver in network.outputs:
        sink = f"PO:{po}"
        lines.append(f"  {_quote(sink)} [shape=doublecircle, label={_quote(po)}];")
        lines.append(f"  {_quote(driver)} -> {_quote(sink)};")
    lines.append("}")
    return "\n".join(lines)


def implementation_to_dot(impl: DominoImplementation) -> str:
    """DOT digraph of an inverter-free domino implementation.

    Positive-polarity gates are drawn solid, negative-polarity gates
    (DeMorgan duals) filled grey; static boundary inverters are
    triangles outside the block cluster.
    """
    lines = [
        f"digraph {_quote(impl.network.name + '_domino')} {{",
        "  rankdir=LR;",
        "  subgraph cluster_block { label=\"inverter-free domino block\";",
    ]
    for gate in impl.gates.values():
        fill = ", style=filled, fillcolor=lightgrey" if gate.polarity is Polarity.NEG else ""
        shape = "box" if gate.gate_type is GateType.AND else "ellipse"
        label = f"{gate.instance_name}\\n{gate.gate_type.value}"
        lines.append(
            f"    {_quote(gate.instance_name)} [shape={shape}, label={_quote(label)}{fill}];"
        )
    lines.append("  }")

    def ref_node(ref) -> str:
        if ref.kind == "const":
            return f"const_{int(ref.value)}"
        if ref.kind in ("input", "latch"):
            if ref.polarity is Polarity.NEG:
                return f"{ref.name}_inv"
            return ref.name
        return impl.gates[ref.key].instance_name

    emitted = set()
    for src in impl.network.inputs:
        lines.append(f"  {_quote(src)} [shape=triangle];")
    for latch in impl.network.latches:
        lines.append(f"  {_quote(latch.name)} [shape=Msquare];")
    for src in sorted(impl.input_inverters):
        inv = f"{src}_inv"
        lines.append(f"  {_quote(inv)} [shape=invtriangle, label={_quote('~' + src)}];")
        lines.append(f"  {_quote(src)} -> {_quote(inv)};")
    for gate in impl.gates.values():
        for ref in gate.fanins:
            lines.append(f"  {_quote(ref_node(ref))} -> {_quote(gate.instance_name)};")
    for po, ref in impl.output_refs.items():
        sink = f"PO:{po}"
        lines.append(f"  {_quote(sink)} [shape=doublecircle, label={_quote(po)}];")
        src = ref_node(ref)
        from repro.phase import Phase

        if impl.assignment[po] is Phase.NEGATIVE:
            inv = f"{po}_phase_inv"
            lines.append(f"  {_quote(inv)} [shape=invtriangle];")
            lines.append(f"  {_quote(src)} -> {_quote(inv)} ;")
            src = inv
        lines.append(f"  {_quote(src)} -> {_quote(sink)};")
    lines.append("}")
    return "\n".join(lines)


def sgraph_to_dot(graph: SGraph, name: str = "sgraph") -> str:
    """DOT digraph of an s-graph; supervertex weights shown in labels."""
    lines = [f"digraph {_quote(name)} {{"]
    for v in graph.vertices:
        w = graph.weight[v]
        label = v if w == 1 else f"{v}\\n(w={w})"
        shape = "circle" if w == 1 else "doublecircle"
        lines.append(f"  {_quote(v)} [shape={shape}, label={_quote(label)}];")
    for u, v in graph.edges():
        lines.append(f"  {_quote(u)} -> {_quote(v)};")
    lines.append("}")
    return "\n".join(lines)

"""Structural network transformations.

These passes lower a parsed/generated network into the AND/OR/NOT form
that the domino phase transform consumes ("technology independent
synthesis" output in the paper's flow), and provide the usual cleanup:
constant propagation, buffer elision and double-inverter removal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import NetworkError
from repro.network.netlist import GateType, LogicNetwork, Node

#: Gate types allowed after :func:`to_aoi` lowering.
AOI_TYPES = (GateType.AND, GateType.OR, GateType.NOT, GateType.BUF)


def expand_sop_nodes(network: LogicNetwork) -> LogicNetwork:
    """Lower every SOP node to AND/OR/NOT gates.

    Each cube becomes an AND over (possibly inverted) fanins, the cover
    becomes an OR of cubes, and an off-set cover gets an output
    inverter.  Returns a new network; the input is unmodified.
    """
    out = network.copy(network.name)
    for node in list(out.nodes.values()):
        if node.gate_type is not GateType.SOP:
            continue
        cover = node.cover
        if cover is None:
            raise NetworkError(f"SOP node {node.name} has no cover")
        fanins = list(node.fanins)
        inv_cache: Dict[str, str] = {}

        def inverted(fi: str) -> str:
            if fi not in inv_cache:
                inv_name = out.fresh_name(f"{node.name}_n_{fi}")
                out.add_gate(inv_name, GateType.NOT, [fi])
                inv_cache[fi] = inv_name
            return inv_cache[fi]

        cube_nodes: List[str] = []
        for ci, cube in enumerate(cover.cubes):
            literals: List[str] = []
            for fi, lit in zip(fanins, cube):
                if lit == "1":
                    literals.append(fi)
                elif lit == "0":
                    literals.append(inverted(fi))
            if not literals:
                # A cube of all don't-cares is a tautology.
                cube_nodes = []
                taut = out.fresh_name(f"{node.name}_taut")
                out.add_gate(taut, GateType.CONST1, [])
                cube_nodes = [taut]
                break
            if len(literals) == 1:
                cube_nodes.append(literals[0])
            else:
                cname = out.fresh_name(f"{node.name}_c{ci}")
                out.add_gate(cname, GateType.AND, literals)
                cube_nodes.append(cname)

        if not cube_nodes:
            # Empty cover: constant (0 for on-set semantics, 1 for off-set).
            node.gate_type = GateType.CONST1 if cover.output_value == "0" else GateType.CONST0
            node.fanins = []
            node.cover = None
            continue

        if len(cube_nodes) == 1:
            or_name = cube_nodes[0]
        else:
            or_name = out.fresh_name(f"{node.name}_or")
            out.add_gate(or_name, GateType.OR, cube_nodes)

        if cover.output_value == "1":
            node.gate_type = GateType.BUF
            node.fanins = [or_name]
        else:
            node.gate_type = GateType.NOT
            node.fanins = [or_name]
        node.cover = None
    out.validate()
    return out


def _lower_gate(net: LogicNetwork, node: Node) -> None:
    """Rewrite NAND/NOR/XOR/XNOR/MUX nodes into AND/OR/NOT in place."""
    t = node.gate_type
    if t is GateType.NAND:
        inner = net.fresh_name(f"{node.name}_and")
        net.add_gate(inner, GateType.AND, list(node.fanins))
        node.gate_type = GateType.NOT
        node.fanins = [inner]
    elif t is GateType.NOR:
        inner = net.fresh_name(f"{node.name}_or")
        net.add_gate(inner, GateType.OR, list(node.fanins))
        node.gate_type = GateType.NOT
        node.fanins = [inner]
    elif t in (GateType.XOR, GateType.XNOR):
        # Binary tree of 2-input xors: a^b = (a & ~b) | (~a & b).
        operands = list(node.fanins)

        def xor2(a: str, b: str) -> str:
            na = net.fresh_name(f"{node.name}_na")
            nb = net.fresh_name(f"{node.name}_nb")
            net.add_gate(na, GateType.NOT, [a])
            net.add_gate(nb, GateType.NOT, [b])
            t0 = net.fresh_name(f"{node.name}_t0")
            t1 = net.fresh_name(f"{node.name}_t1")
            net.add_gate(t0, GateType.AND, [a, nb])
            net.add_gate(t1, GateType.AND, [na, b])
            o = net.fresh_name(f"{node.name}_x")
            net.add_gate(o, GateType.OR, [t0, t1])
            return o

        acc = operands[0]
        for nxt in operands[1:]:
            acc = xor2(acc, nxt)
        if t is GateType.XOR:
            node.gate_type = GateType.BUF
            node.fanins = [acc]
        else:
            node.gate_type = GateType.NOT
            node.fanins = [acc]
    elif t is GateType.MUX:
        sel, d0, d1 = node.fanins
        nsel = net.fresh_name(f"{node.name}_ns")
        net.add_gate(nsel, GateType.NOT, [sel])
        a0 = net.fresh_name(f"{node.name}_a0")
        a1 = net.fresh_name(f"{node.name}_a1")
        net.add_gate(a0, GateType.AND, [nsel, d0])
        net.add_gate(a1, GateType.AND, [sel, d1])
        node.gate_type = GateType.OR
        node.fanins = [a0, a1]


def to_aoi(network: LogicNetwork) -> LogicNetwork:
    """Lower a network to AND/OR/NOT/BUF gates only.

    SOP covers are expanded first, then NAND/NOR/XOR/XNOR/MUX gates are
    rewritten.  The result is the canonical input form for the domino
    phase transform.
    """
    net = expand_sop_nodes(network)
    for node in list(net.nodes.values()):
        if node.gate_type in (GateType.NAND, GateType.NOR, GateType.XOR, GateType.XNOR, GateType.MUX):
            _lower_gate(net, node)
    net.validate()
    return net


def propagate_constants(network: LogicNetwork) -> LogicNetwork:
    """Fold constants through AND/OR/NOT/BUF gates.  Returns a new network."""
    net = network.copy()
    _propagate_constants(net)
    return net


def _propagate_constants(net: LogicNetwork) -> None:
    """:func:`propagate_constants` in place."""
    const_val: Dict[str, Optional[bool]] = {}
    for name in net.topological_order():
        node = net.nodes[name]
        t = node.gate_type
        if t is GateType.CONST0:
            const_val[name] = False
            continue
        if t is GateType.CONST1:
            const_val[name] = True
            continue
        if t.is_comb_source:
            const_val[name] = None
            continue
        fvals = [const_val.get(fi) for fi in node.fanins]
        if t is GateType.NOT:
            const_val[name] = None if fvals[0] is None else (not fvals[0])
            if const_val[name] is not None:
                node.gate_type = GateType.CONST1 if const_val[name] else GateType.CONST0
                node.fanins = []
            continue
        if t is GateType.BUF:
            const_val[name] = fvals[0]
            if const_val[name] is not None:
                node.gate_type = GateType.CONST1 if const_val[name] else GateType.CONST0
                node.fanins = []
            continue
        if t is GateType.AND:
            if any(v is False for v in fvals):
                const_val[name] = False
                node.gate_type = GateType.CONST0
                node.fanins = []
                continue
            keep = [fi for fi, v in zip(node.fanins, fvals) if v is not True]
            if not keep:
                const_val[name] = True
                node.gate_type = GateType.CONST1
                node.fanins = []
                continue
            if len(keep) == 1:
                node.gate_type = GateType.BUF
            node.fanins = keep
            const_val[name] = None
            continue
        if t is GateType.OR:
            if any(v is True for v in fvals):
                const_val[name] = True
                node.gate_type = GateType.CONST1
                node.fanins = []
                continue
            keep = [fi for fi, v in zip(node.fanins, fvals) if v is not False]
            if not keep:
                const_val[name] = False
                node.gate_type = GateType.CONST0
                node.fanins = []
                continue
            if len(keep) == 1:
                node.gate_type = GateType.BUF
            node.fanins = keep
            const_val[name] = None
            continue
        const_val[name] = None
    net.validate()


def collapse_buffers(network: LogicNetwork) -> LogicNetwork:
    """Bypass BUF nodes and double inverters; drop dead nodes.

    Primary outputs driven through buffers are redirected to the buffer
    source.  Returns a new network.
    """
    net = network.copy()
    _collapse_buffers(net)
    return net


def _collapse_buffers(net: LogicNetwork) -> None:
    """:func:`collapse_buffers` in place."""

    def resolve(name: str, seen: Optional[Set[str]] = None) -> str:
        node = net.nodes[name]
        if node.gate_type is GateType.BUF:
            return resolve(node.fanins[0])
        if node.gate_type is GateType.NOT:
            inner = net.nodes[node.fanins[0]]
            if inner.gate_type is GateType.NOT:
                return resolve(inner.fanins[0])
            if inner.gate_type is GateType.BUF:
                node.fanins = [resolve(inner.fanins[0])]
        return name

    for node in list(net.nodes.values()):
        node.fanins = [resolve(fi) for fi in node.fanins]
    net.outputs = [(po, resolve(driver)) for po, driver in net.outputs]
    _sweep_dead_nodes(net)


def sweep_dead_nodes(network: LogicNetwork) -> LogicNetwork:
    """Remove logic not reachable from any PO or latch data input.

    Primary inputs are always retained (interface preservation).
    Returns a new network.
    """
    net = network.copy()
    _sweep_dead_nodes(net)
    return net


def _sweep_dead_nodes(net: LogicNetwork) -> None:
    """:func:`sweep_dead_nodes` in place."""
    live: Set[str] = set(net.inputs)
    roots = [driver for _, driver in net.outputs]
    roots.extend(latch.name for latch in net.latches)
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in live:
            continue
        live.add(name)
        stack.extend(net.nodes[name].fanins)
    dead = [name for name in net.nodes if name not in live]
    for name in dead:
        del net.nodes[name]
    net.validate()


def cleanup(network: LogicNetwork) -> LogicNetwork:
    """Standard cleanup pipeline: constants, buffers, dead logic.

    Copies ``network`` once and runs every pass in place on the copy;
    the result equals ``collapse_buffers(propagate_constants(network))``.
    """
    net = network.copy()
    _propagate_constants(net)
    _collapse_buffers(net)
    return net


def demorgan_node(network: LogicNetwork, name: str) -> None:
    """Apply DeMorgan's law at one AND/OR node, in place.

    ``NOT(AND(a,b))`` style structures are not required; this primitive
    converts ``AND(a,b)`` into ``NOT(OR(NOT a, NOT b))`` (and dually),
    which is the textbook rewrite used when pushing inverters backwards
    (Fig. 3, step 3).  It is exposed mostly for demonstration and tests;
    the production phase transform works on polarity demands instead
    (see :mod:`repro.network.duplication`).
    """
    node = network.node(name)
    if node.gate_type not in (GateType.AND, GateType.OR):
        raise NetworkError(f"demorgan_node requires AND/OR, got {node.gate_type.value}")
    inverted_fanins: List[str] = []
    for fi in node.fanins:
        inv = network.fresh_name(f"{name}_dm_{fi}")
        network.add_gate(inv, GateType.NOT, [fi])
        inverted_fanins.append(inv)
    inner = network.fresh_name(f"{name}_dm")
    network.add_gate(inner, node.gate_type.dual, inverted_fanins)
    node.gate_type = GateType.NOT
    node.fanins = [inner]


def count_gate_types(network: LogicNetwork) -> Dict[GateType, int]:
    """Histogram of gate types (excluding sources and latches)."""
    hist: Dict[GateType, int] = {}
    for node in network.gates:
        hist[node.gate_type] = hist.get(node.gate_type, 0) + 1
    return hist


def networks_equivalent(
    a: LogicNetwork,
    b: LogicNetwork,
    n_vectors: int = 256,
    seed: int = 0,
    exhaustive_limit: int = 12,
) -> bool:
    """Check combinational equivalence by simulation.

    Exhaustive when the input count is at most ``exhaustive_limit``,
    random sampling otherwise.  Both networks must be combinational and
    have identical input and output names (order may differ).
    """
    import itertools
    import random

    if set(a.inputs) != set(b.inputs):
        return False
    if set(a.output_names()) != set(b.output_names()):
        return False
    names = list(a.inputs)
    rng = random.Random(seed)
    if len(names) <= exhaustive_limit:
        vectors = itertools.product([False, True], repeat=len(names))
    else:
        vectors = (
            tuple(rng.random() < 0.5 for _ in names) for _ in range(n_vectors)
        )
    for vec in vectors:
        assignment = dict(zip(names, vec))
        if a.evaluate_outputs(assignment) != b.evaluate_outputs(assignment):
            return False
    return True

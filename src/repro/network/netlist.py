"""Technology-independent logic network.

This module provides the central data structure of the library: a
:class:`LogicNetwork` of named nodes.  Nodes are primary inputs, logic
gates (AND/OR/NOT/BUF/XOR/XNOR/NAND/NOR/MUX/constants), generic SOP
covers (as read from BLIF ``.names``), or latch outputs.  Primary
outputs are named references to driver nodes.

The network is deliberately simple: a dict of nodes keyed by name, with
fanins stored as name lists.  All algorithms in the package (phase
transformation, BDD construction, power estimation, s-graph extraction)
operate on this one representation.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import NetworkError


class GateType(enum.Enum):
    """Functional type of a network node."""

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MUX = "mux"  # fanins: (select, data0, data1)
    SOP = "sop"  # generic single-output cover (from BLIF .names)
    LATCH = "latch"  # latch *output*; single fanin is the latch data input

    def __init__(self, value: str) -> None:
        #: True for nodes with no logical fanin (inputs and constants).
        self.is_source = value in ("input", "const0", "const1")
        #: True for nodes with no *combinational* fanin: the sources plus
        #: latch outputs.  Every structural walk stops at these.
        self.is_comb_source = self.is_source or value == "latch"

    @property
    def is_monotone(self) -> bool:
        """True for AND/OR/BUF gates, which a domino block may contain."""
        return self in (GateType.AND, GateType.OR, GateType.BUF)

    @property
    def dual(self) -> "GateType":
        """DeMorgan dual of the gate (AND<->OR, NAND<->NOR, BUF<->BUF).

        Raises :class:`NetworkError` for gates without a simple dual.
        """
        dual = _DUALS.get(self)
        if dual is None:
            raise NetworkError(f"gate type {self.value} has no DeMorgan dual")
        return dual


#: The DeMorgan dual of every gate type that has one.
_DUALS: Dict[GateType, GateType] = {
    GateType.AND: GateType.OR,
    GateType.OR: GateType.AND,
    GateType.NAND: GateType.NOR,
    GateType.NOR: GateType.NAND,
    GateType.BUF: GateType.BUF,
    GateType.CONST0: GateType.CONST1,
    GateType.CONST1: GateType.CONST0,
}


# A cube is a mapping position -> literal value: '0', '1' or '-'.
Cube = str


@dataclass
class SopCover:
    """Sum-of-products cover for a generic :data:`GateType.SOP` node.

    ``cubes`` is a list of cube strings over the node's fanins (same
    order).  ``output_value`` mirrors BLIF semantics: ``'1'`` means the
    cover lists the on-set, ``'0'`` means it lists the off-set.
    """

    cubes: List[Cube] = field(default_factory=list)
    output_value: str = "1"

    def evaluate(self, values: Sequence[bool]) -> bool:
        """Evaluate the cover on a fanin value vector."""
        hit = any(self._cube_matches(cube, values) for cube in self.cubes)
        if self.output_value == "1":
            return hit
        return not hit

    @staticmethod
    def _cube_matches(cube: Cube, values: Sequence[bool]) -> bool:
        for lit, val in zip(cube, values):
            if lit == "1" and not val:
                return False
            if lit == "0" and val:
                return False
        return True

    def validate(self, n_fanins: int) -> None:
        if self.output_value not in ("0", "1"):
            raise NetworkError(f"SOP output value must be '0' or '1', got {self.output_value!r}")
        for cube in self.cubes:
            if len(cube) != n_fanins:
                raise NetworkError(
                    f"cube {cube!r} has {len(cube)} literals, expected {n_fanins}"
                )
            bad = set(cube) - {"0", "1", "-"}
            if bad:
                raise NetworkError(f"cube {cube!r} contains invalid literals {sorted(bad)}")


@dataclass
class Node:
    """One node of a :class:`LogicNetwork`."""

    name: str
    gate_type: GateType
    fanins: List[str] = field(default_factory=list)
    cover: Optional[SopCover] = None
    # Latch bookkeeping (only for LATCH nodes): initial value 0/1/2(x)
    init_value: int = 2

    def evaluate(self, values: Sequence[bool]) -> bool:
        """Combinationally evaluate this node given fanin values."""
        t = self.gate_type
        if t is GateType.CONST0:
            return False
        if t is GateType.CONST1:
            return True
        if t is GateType.BUF:
            return values[0]
        if t is GateType.NOT:
            return not values[0]
        if t is GateType.AND:
            return all(values)
        if t is GateType.OR:
            return any(values)
        if t is GateType.NAND:
            return not all(values)
        if t is GateType.NOR:
            return not any(values)
        if t is GateType.XOR:
            acc = False
            for v in values:
                acc ^= v
            return acc
        if t is GateType.XNOR:
            acc = True
            for v in values:
                acc ^= v
            return acc
        if t is GateType.MUX:
            sel, d0, d1 = values
            return d1 if sel else d0
        if t is GateType.SOP:
            if self.cover is None:
                raise NetworkError(f"SOP node {self.name} has no cover")
            return self.cover.evaluate(values)
        raise NetworkError(f"cannot combinationally evaluate node {self.name} of type {t.value}")


class LogicNetwork:
    """A named multi-level logic network with optional latches.

    The network stores:

    * ``nodes`` — mapping name -> :class:`Node` (includes INPUT nodes and
      LATCH output nodes);
    * ``inputs`` — ordered list of primary-input names;
    * ``outputs`` — ordered list of ``(po_name, driver_name)`` pairs.  A
      PO is a named reference to an internal node (BLIF-style).

    Latches are modelled as LATCH nodes: the node's single fanin is the
    latch *data* input (a combinational node) and the node itself acts
    as a sequential source for the combinational logic that reads it.
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.inputs: List[str] = []
        self.outputs: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> Node:
        """Add a primary input node."""
        node = self._add_node(name, GateType.INPUT, [])
        self.inputs.append(name)
        return node

    def add_gate(
        self,
        name: str,
        gate_type: GateType,
        fanins: Sequence[str],
        cover: Optional[SopCover] = None,
    ) -> Node:
        """Add a combinational gate node."""
        if gate_type.is_source:
            if fanins:
                raise NetworkError(f"source node {name} cannot have fanins")
        elif gate_type in (GateType.NOT, GateType.BUF, GateType.LATCH):
            if len(fanins) != 1:
                raise NetworkError(
                    f"{gate_type.value} node {name} needs exactly 1 fanin, got {len(fanins)}"
                )
        elif gate_type is GateType.MUX:
            if len(fanins) != 3:
                raise NetworkError(f"MUX node {name} needs exactly 3 fanins")
        elif gate_type is GateType.SOP:
            if cover is None:
                raise NetworkError(f"SOP node {name} requires a cover")
            cover.validate(len(fanins))
        else:
            if len(fanins) < 1:
                raise NetworkError(f"{gate_type.value} node {name} needs at least 1 fanin")
        node = self._add_node(name, gate_type, list(fanins))
        node.cover = cover
        return node

    def add_latch(self, name: str, data_input: str, init_value: int = 0) -> Node:
        """Add a latch whose output node is ``name`` and data input is ``data_input``."""
        if init_value not in (0, 1, 2, 3):
            raise NetworkError(f"latch {name}: invalid init value {init_value}")
        node = self._add_node(name, GateType.LATCH, [data_input])
        node.init_value = init_value
        return node

    def add_output(self, po_name: str, driver: Optional[str] = None) -> None:
        """Declare a primary output.  ``driver`` defaults to ``po_name``."""
        self.outputs.append((po_name, driver if driver is not None else po_name))

    def _add_node(self, name: str, gate_type: GateType, fanins: List[str]) -> Node:
        if name in self.nodes:
            raise NetworkError(f"duplicate node name {name!r}")
        node = Node(name=name, gate_type=gate_type, fanins=fanins)
        self.nodes[name] = node
        return node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def latches(self) -> List[Node]:
        """All latch nodes, in insertion order."""
        return [n for n in self.nodes.values() if n.gate_type is GateType.LATCH]

    @property
    def is_combinational(self) -> bool:
        return not any(n.gate_type is GateType.LATCH for n in self.nodes.values())

    @property
    def gates(self) -> List[Node]:
        """All non-source, non-latch (i.e. combinational logic) nodes."""
        return [n for n in self.nodes.values() if not n.gate_type.is_comb_source]

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def output_drivers(self) -> List[str]:
        """Driver node names of the primary outputs, in PO order."""
        return [driver for _, driver in self.outputs]

    def output_names(self) -> List[str]:
        return [po for po, _ in self.outputs]

    def driver_of(self, po_name: str) -> str:
        for po, driver in self.outputs:
            if po == po_name:
                return driver
        raise NetworkError(f"unknown primary output {po_name!r}")

    def fanout_map(self) -> Dict[str, List[str]]:
        """Map node name -> list of node names that read it (latches included)."""
        fanouts: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for node in self.nodes.values():
            for fi in node.fanins:
                if fi not in fanouts:
                    raise NetworkError(f"node {node.name} references unknown fanin {fi!r}")
                fanouts[fi].append(node.name)
        return fanouts

    def sources(self) -> List[str]:
        """Combinational sources: primary inputs, constants and latch outputs."""
        return [n.name for n in self.nodes.values() if n.gate_type.is_comb_source]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Check structural well-formedness.  Raises :class:`NetworkError`.
        Returns the cycle check's walk, :meth:`topological_order`."""
        nodes = self.nodes
        for node in nodes.values():
            for fi in node.fanins:
                if fi not in nodes:
                    raise NetworkError(f"node {node.name} references unknown fanin {fi!r}")
            if node.gate_type is GateType.SOP:
                if node.cover is None:
                    raise NetworkError(f"SOP node {node.name} has no cover")
                node.cover.validate(len(node.fanins))
        for name in self.inputs:
            if name not in self.nodes:
                raise NetworkError(f"declared input {name!r} has no node")
            if self.nodes[name].gate_type is not GateType.INPUT:
                raise NetworkError(f"declared input {name!r} is a {self.nodes[name].gate_type.value}")
        for po, driver in self.outputs:
            if driver not in self.nodes:
                raise NetworkError(f"output {po!r} driven by unknown node {driver!r}")
        return self._post_order(check_cycles=True)

    def _post_order(self, check_cycles: bool) -> List[str]:
        """Iterative DFS post-order over combinational fanins.

        Roots are taken in node insertion order and fanins in fanin
        order; the walk stops at inputs, constants and latch outputs, so
        latches break cycles.  With ``check_cycles`` a fanin still on
        the DFS stack raises :class:`NetworkError` (a combinational
        cycle); without it the node is skipped, as an already visited
        one.
        """
        nodes = self.nodes
        order: List[str] = []
        emit = order.append
        # name -> False while on the DFS stack, True once emitted
        done: Dict[str, bool] = {}
        state_of = done.get
        for root, root_node in nodes.items():
            if root in done:
                continue
            if root_node.gate_type.is_comb_source:
                done[root] = True
                emit(root)
                continue
            # Between roots the stack is empty, so every visited node is
            # emitted: a root whose fanins are all visited comes next.
            for fi in root_node.fanins:
                if fi not in done:
                    break
            else:
                done[root] = True
                emit(root)
                continue
            done[root] = False
            stack: List[Tuple[str, Iterator[str]]] = [(root, iter(root_node.fanins))]
            while stack:
                name, it = stack[-1]
                for fi in it:
                    state = state_of(fi)
                    if state is None:
                        node = nodes[fi]
                        if node.gate_type.is_comb_source:
                            done[fi] = True
                            emit(fi)
                            continue
                        done[fi] = False
                        stack.append((fi, iter(node.fanins)))
                        break
                    if not state and check_cycles:
                        raise NetworkError(f"combinational cycle through node {fi!r}")
                else:
                    done[name] = True
                    emit(name)
                    stack.pop()
        return order

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        input_values: Mapping[str, bool],
        state: Optional[Mapping[str, bool]] = None,
    ) -> Dict[str, bool]:
        """Zero-delay evaluation of every node.

        ``input_values`` maps primary-input names to booleans; ``state``
        maps latch names to their current output values (defaults to the
        latch init values, with ``x`` treated as 0).  Returns a dict of
        all node values.  Latch *next* state is the value of each
        latch's data input in the returned dict.
        """
        values: Dict[str, bool] = {}
        for name in self.inputs:
            if name not in input_values:
                raise NetworkError(f"missing value for primary input {name!r}")
            values[name] = bool(input_values[name])
        for latch in self.latches:
            if state is not None and latch.name in state:
                values[latch.name] = bool(state[latch.name])
            else:
                values[latch.name] = latch.init_value == 1
        for name in self.topological_order():
            node = self.nodes[name]
            if name in values:
                continue
            if node.gate_type is GateType.CONST0:
                values[name] = False
            elif node.gate_type is GateType.CONST1:
                values[name] = True
            else:
                values[name] = node.evaluate([values[fi] for fi in node.fanins])
        return values

    def next_state(self, values: Mapping[str, bool]) -> Dict[str, bool]:
        """Extract the next latch state from a full evaluation dict."""
        return {latch.name: bool(values[latch.fanins[0]]) for latch in self.latches}

    def evaluate_outputs(self, input_values: Mapping[str, bool]) -> Dict[str, bool]:
        """Evaluate and return only the primary-output values (combinational)."""
        values = self.evaluate(input_values)
        return {po: values[driver] for po, driver in self.outputs}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Topological order of all nodes, treating latch outputs as sources."""
        return self._post_order(check_cycles=False)

    # ------------------------------------------------------------------
    # Editing helpers
    # ------------------------------------------------------------------
    def fresh_name(self, base: str) -> str:
        """Return a node name not yet in use, derived from ``base``."""
        if base not in self.nodes:
            return base
        for i in itertools.count(1):
            candidate = f"{base}__{i}"
            if candidate not in self.nodes:
                return candidate
        raise AssertionError("unreachable")

    def copy(self, name: Optional[str] = None) -> "LogicNetwork":
        """Deep-copy the network."""
        clone = LogicNetwork(name or self.name)
        clone.inputs = list(self.inputs)
        clone.outputs = list(self.outputs)
        for node in self.nodes.values():
            cover = None
            if node.cover is not None:
                cover = SopCover(cubes=list(node.cover.cubes), output_value=node.cover.output_value)
            clone.nodes[node.name] = Node(
                name=node.name,
                gate_type=node.gate_type,
                fanins=list(node.fanins),
                cover=cover,
                init_value=node.init_value,
            )
        return clone

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Structural content hash of the network (sha256 hex digest).

        The fingerprint is a pure function of the network's *content* —
        name, input/output order, and every node's type, fanins, cover
        and latch init value — so two independently parsed copies of
        the same BLIF file hash identically, while any single-gate edit
        (type, fanin, cube, polarity) produces a different digest.  Node
        *insertion* order does not participate: nodes are hashed in
        sorted-name order, so structurally identical networks built in
        different orders still agree.

        The persistent store keys every artefact by it, so a cached
        entry is found again across processes, runs and object identity.
        """
        parts: List[str] = [
            self.name,
            "pi:" + ",".join(self.inputs),
            "po:" + ",".join(f"{po}={driver}" for po, driver in self.outputs),
        ]
        for name in sorted(self.nodes):
            node = self.nodes[name]
            cover = ""
            if node.cover is not None:
                cover = node.cover.output_value + "|" + ";".join(sorted(node.cover.cubes))
            parts.append(
                f"{name}\x1f{node.gate_type.value}\x1f{','.join(node.fanins)}"
                f"\x1f{cover}\x1f{node.init_value}"
            )
        digest = hashlib.sha256("\x1e".join(parts).encode("utf-8"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Statistics / display
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Summary statistics: node counts by category."""
        counts: Dict[str, int] = {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "latches": len(self.latches),
            "gates": len(self.gates),
            "inverters": sum(1 for n in self.nodes.values() if n.gate_type is GateType.NOT),
            "nodes": len(self.nodes),
        }
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<LogicNetwork {self.name!r}: {s['inputs']} PI, {s['outputs']} PO, "
            f"{s['latches']} latches, {s['gates']} gates>"
        )


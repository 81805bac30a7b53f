"""Polarity resolution and the inverter-free phase transform.

This implements the synthesis step of Puri et al. (ICCAD '96, reference
[15] in the paper) that the phase-assignment algorithms drive: given a
technology-independent AND/OR/NOT network and a phase for every primary
output, produce an inverter-free *domino block* plus static inverters
at the boundaries.

Rather than literally pushing inverter nodes around with DeMorgan
rewrites, the transform propagates **polarity demands**.  Output ``o``
with positive phase demands its driver in positive polarity; negative
phase demands the complement (the boundary inverter restores the
value).  Demands propagate through the cone:

* ``(AND, +) -> AND  over fanins demanded +``
* ``(AND, -) -> OR   over fanins demanded -``   (DeMorgan)
* ``(OR,  +) -> OR   over fanins demanded +``
* ``(OR,  -) -> AND  over fanins demanded -``   (DeMorgan)
* ``(NOT, q) -> fanin demanded ¬q``             (inverter dissolves)
* ``(PI,  -) -> static input inverter``

A node demanded in *both* polarities is realised twice — this is
exactly the paper's "trapped inverter" logic duplication.

Polarity is resolved in one place: :class:`PolaritySpace` applies these
rules once per network, to every node in both polarities, and builds
the domino gate of every (AND/OR node, polarity) slot.  The power
estimator and the timing-aware model read the space, and an
implementation is a walk of it: :func:`phase_transform` keeps the gates
reachable from the outputs' driver references, in dependency order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import NetworkError, PowerError
from repro.network.netlist import GateType, LogicNetwork
from repro.phase import Phase, PhaseAssignment


class Polarity(enum.Enum):
    """Polarity in which a node of the original network is realised."""

    POS = "+"
    NEG = "-"

    @classmethod
    def from_phase(cls, phase: Phase) -> "Polarity":
        return Polarity.POS if phase is Phase.POSITIVE else Polarity.NEG


#: A reference to a value inside the domino implementation.
#: kind is one of "gate", "input", "latch", "const".
@dataclass(frozen=True)
class Ref:
    kind: str
    name: str = ""
    polarity: Polarity = Polarity.POS
    value: bool = False  # only for kind == "const"

    @property
    def key(self) -> Tuple[str, Polarity]:
        return (self.name, self.polarity)


@dataclass(frozen=True)
class DominoGate:
    """One gate instance inside the inverter-free domino block.

    Frozen: a :class:`PolaritySpace` and every implementation walked
    from it share one object per slot.
    """

    name: str  # original network node name
    polarity: Polarity
    gate_type: GateType  # AND or OR (BUF never materialises)
    fanins: Tuple[Ref, ...] = ()

    @property
    def key(self) -> Tuple[str, Polarity]:
        return (self.name, self.polarity)

    @property
    def instance_name(self) -> str:
        suffix = "p" if self.polarity is Polarity.POS else "n"
        return f"{self.name}${suffix}"


_AOI_OK = (GateType.AND, GateType.OR, GateType.NOT, GateType.BUF)


class PolaritySpace:
    """Every node of an AOI network resolved in both polarities.

    :meth:`resolve` gives the :class:`Ref` realising a (node, polarity)
    demand, with NOT/BUF chains resolved away, and :attr:`gates` holds
    the :class:`DominoGate` of every slot — each AND/OR node in both
    polarities — in dependency order.  Slots ``2 i`` (positive) and
    ``2 i + 1`` (negative) belong to the ``i``-th AND/OR node of
    ``network.gates`` (:attr:`gate_index`).
    """

    def __init__(self, network: LogicNetwork):
        self.network = network
        offenders = [n.name for n in network.gates if n.gate_type not in _AOI_OK]
        if offenders:
            raise PowerError(
                f"PolaritySpace requires an AOI network; offending nodes: {offenders[:5]}"
            )
        self.gate_index: Dict[Tuple[str, Polarity], int] = {}
        for node in network.gates:
            if node.gate_type is GateType.AND or node.gate_type is GateType.OR:
                self.gate_index[(node.name, Polarity.POS)] = len(self.gate_index)
                self.gate_index[(node.name, Polarity.NEG)] = len(self.gate_index)
        self.n_slots = len(self.gate_index)

        self.sources: List[str] = network.sources()
        self.source_index: Dict[str, int] = {s: i for i, s in enumerate(self.sources)}

        #: (AND/OR node, polarity) -> DominoGate, in dependency order.
        self.gates: Dict[Tuple[str, Polarity], DominoGate] = {}
        # polarity -> node name -> the Ref realising the node in it
        self._refs: Dict[Polarity, Dict[str, Ref]] = {Polarity.POS: {}, Polarity.NEG: {}}
        self._resolve_all()

    def resolve(self, name: str, pol: Polarity) -> Ref:
        return self._refs[pol][name]

    def _resolve_all(self) -> None:
        pos, neg = self._refs[Polarity.POS], self._refs[Polarity.NEG]
        nodes = self.network.nodes
        for name in self.network.topological_order():
            node = nodes[name]
            t = node.gate_type
            if t is GateType.INPUT or t is GateType.LATCH:
                kind = "latch" if t is GateType.LATCH else "input"
                pos[name] = Ref(kind, name, Polarity.POS)
                neg[name] = Ref(kind, name, Polarity.NEG)
            elif t is GateType.CONST0 or t is GateType.CONST1:
                value = t is GateType.CONST1
                pos[name] = Ref("const", name, Polarity.POS, value=value)
                neg[name] = Ref("const", name, Polarity.NEG, value=not value)
            elif t is GateType.NOT:  # flips the demand
                fanin = node.fanins[0]
                pos[name], neg[name] = neg[fanin], pos[fanin]
            elif t is GateType.BUF:  # passes it on
                fanin = node.fanins[0]
                pos[name], neg[name] = pos[fanin], neg[fanin]
            else:  # AND / OR, realised as the DeMorgan dual under a negative demand
                fanins = node.fanins
                self.gates[(name, Polarity.POS)] = DominoGate(
                    name, Polarity.POS, t, tuple([pos[fi] for fi in fanins])
                )
                self.gates[(name, Polarity.NEG)] = DominoGate(
                    name, Polarity.NEG, t.dual, tuple([neg[fi] for fi in fanins])
                )
                pos[name] = Ref("gate", name, Polarity.POS)
                neg[name] = Ref("gate", name, Polarity.NEG)


class DominoImplementation:
    """Result of the phase transform: an inverter-free block + boundary cells.

    Attributes
    ----------
    network:
        The original AND/OR/NOT network the block was derived from.
    assignment:
        The phase assignment that produced this implementation.
    gates:
        Mapping ``(node name, polarity) -> DominoGate``, in dependency
        order (fanins first).
    input_inverters:
        Names of sources (PIs or latch outputs) required in negative
        polarity; each needs one static inverter at the block input.
    output_refs:
        Mapping PO name -> Ref produced by the domino block.  For a
        negative-phase output the ref is the *complement* of the output
        function and a static boundary inverter restores it.
    """

    def __init__(self, network: LogicNetwork, assignment: PhaseAssignment):
        self.network = network
        self.assignment = assignment
        self.gates: Dict[Tuple[str, Polarity], DominoGate] = {}
        self.input_inverters: Set[str] = set()
        self.output_refs: Dict[str, Ref] = {}

    # -- structure ------------------------------------------------------
    @property
    def output_inverters(self) -> List[str]:
        """PO names carrying a static boundary inverter (negative phase)."""
        return [po for po in self.output_refs if self.assignment[po] is Phase.NEGATIVE]

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def n_static_inverters(self) -> int:
        return len(self.input_inverters) + len(self.output_inverters)

    def duplicated_nodes(self) -> List[str]:
        """Original node names realised in both polarities."""
        pos = {name for (name, pol) in self.gates if pol is Polarity.POS}
        neg = {name for (name, pol) in self.gates if pol is Polarity.NEG}
        return sorted(pos & neg)

    def duplication_ratio(self) -> float:
        """Gates in the block divided by distinct original nodes used.

        1.0 means no duplication; 2.0 means every node was duplicated.
        """
        distinct = {name for (name, _pol) in self.gates}
        if not distinct:
            return 1.0
        return len(self.gates) / len(distinct)

    def topological_gate_order(self) -> List[DominoGate]:
        """Gates in dependency order (fanins before fanouts): the order
        :func:`phase_transform` stored them in."""
        return list(self.gates.values())

    # -- semantics --------------------------------------------------------
    def _source_value(self, ref: Ref, sources: Mapping[str, bool]) -> bool:
        if ref.kind == "const":
            return ref.value
        val = bool(sources[ref.name])
        return (not val) if ref.polarity is Polarity.NEG else val

    def evaluate(self, source_values: Mapping[str, bool]) -> Dict[str, bool]:
        """Evaluate the implementation's primary outputs.

        ``source_values`` maps PI names (and latch-output names for
        sequential blocks) to booleans.  Boundary inverters are applied,
        so the result equals the original network's outputs whenever the
        transform is correct.
        """
        gate_vals = self.evaluate_gates(source_values)
        out: Dict[str, bool] = {}
        for po, ref in self.output_refs.items():
            if ref.kind == "gate":
                v = gate_vals[ref.key]
            else:
                v = self._source_value(ref, source_values)
            if self.assignment[po] is Phase.NEGATIVE:
                v = not v
            out[po] = v
        return out

    def evaluate_gates(
        self, source_values: Mapping[str, bool]
    ) -> Dict[Tuple[str, Polarity], bool]:
        """Raw domino gate outputs (before boundary inverters)."""
        gate_vals: Dict[Tuple[str, Polarity], bool] = {}
        for gate in self.topological_gate_order():
            vals = []
            for ref in gate.fanins:
                if ref.kind == "gate":
                    vals.append(gate_vals[ref.key])
                else:
                    vals.append(self._source_value(ref, source_values))
            if gate.gate_type is GateType.AND:
                gate_vals[gate.key] = all(vals)
            elif gate.gate_type is GateType.OR:
                gate_vals[gate.key] = any(vals)
            else:  # pragma: no cover - transform never emits others
                raise NetworkError(f"illegal domino gate type {gate.gate_type}")
        return gate_vals

    # -- probabilities ------------------------------------------------------
    def gate_probabilities(
        self, node_probabilities: Mapping[str, float]
    ) -> Dict[Tuple[str, Polarity], float]:
        """Signal probability of every domino gate.

        ``node_probabilities`` gives the probability that each *original*
        node evaluates to 1.  By Property 4.1, the negative-polarity
        realisation of a node has probability ``1 - p``.
        """
        probs: Dict[Tuple[str, Polarity], float] = {}
        for (name, pol), _gate in self.gates.items():
            p = node_probabilities[name]
            probs[(name, pol)] = p if pol is Polarity.POS else 1.0 - p
        return probs

    def stats(self) -> Dict[str, float]:
        return {
            "domino_gates": self.n_gates,
            "input_inverters": len(self.input_inverters),
            "output_inverters": len(self.output_inverters),
            "duplicated_nodes": len(self.duplicated_nodes()),
            "duplication_ratio": self.duplication_ratio(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DominoImplementation {self.n_gates} gates, "
            f"{len(self.input_inverters)}+{len(self.output_inverters)} static invs, "
            f"dup={self.duplication_ratio():.2f}>"
        )


def phase_transform(
    network: LogicNetwork,
    assignment: PhaseAssignment,
    space: Optional[PolaritySpace] = None,
) -> DominoImplementation:
    """Build the inverter-free domino implementation for an assignment.

    The network must contain only AND/OR/NOT/BUF gates (use
    :func:`repro.network.ops.to_aoi` first).  Latch outputs are treated
    as block inputs, latch data inputs as block outputs are *not*
    handled here — partition sequential circuits first (see
    :mod:`repro.seq.partition`).

    The block is a depth-first walk of the network's polarity space
    from each output's driver reference, outputs in order and each
    gate's fanins in order: a gate is stored once all of its fanin
    gates are, and a source reached in negative polarity gets an input
    inverter.  ``space`` is the network's precomputed
    :class:`PolaritySpace` (a flow passes its evaluator's); without one
    a space is built.  No result depends on it.
    """
    for po in network.output_names():
        assignment[po]  # raises PhaseError when missing
    if space is None:
        for node in network.gates:
            if node.gate_type not in _AOI_OK:
                raise NetworkError(
                    f"phase_transform requires an AOI network; node {node.name} "
                    f"is {node.gate_type.value} (run to_aoi first)"
                )
        space = PolaritySpace(network)
    elif space.network is not network:
        raise NetworkError(
            f"phase_transform got the polarity space of network "
            f"{space.network.name!r}, not of {network.name!r}"
        )

    impl = DominoImplementation(network, assignment)
    for po, driver in network.outputs:
        impl.output_refs[po] = space.resolve(driver, Polarity.from_phase(assignment[po]))
    slots, stored, inverters = space.gates, impl.gates, impl.input_inverters
    # (gate to store, its refs still to visit); the bottom entry visits
    # the output refs and stores nothing.
    stack: List[Tuple[Optional[DominoGate], Iterator[Ref]]] = [
        (None, iter(impl.output_refs.values()))
    ]
    while stack:
        gate, refs = stack[-1]
        for ref in refs:
            if ref.kind == "gate":
                key = ref.key
                if key not in stored:
                    child = slots[key]
                    stack.append((child, iter(child.fanins)))
                    break
            elif ref.kind != "const" and ref.polarity is Polarity.NEG:
                inverters.add(ref.name)
        else:
            stack.pop()
            if gate is not None:
                stored[gate.key] = gate
    return impl


def implementation_network(impl: DominoImplementation) -> LogicNetwork:
    """Materialise a :class:`DominoImplementation` as a plain network.

    Useful for printing, BLIF export and re-analysis: the domino gates
    become AND/OR nodes, boundary inverters become NOT nodes.  Output
    names and logical values match the original network.  It is built
    in one pass over the gates, which are in dependency order, and not
    validated: the technology mapper validates it once, as it compiles
    the design.
    """
    net = LogicNetwork(f"{impl.network.name}_domino")
    for pi in impl.network.inputs:
        net.add_input(pi)
    for latch in impl.network.latches:
        # Latch outputs become free inputs of the block view.
        net.add_input(latch.name)
    add = net._add_node  # the name check of add_gate, not its fanin checks

    inv_names: Dict[str, str] = {}
    for src in sorted(impl.input_inverters):
        inv = net.fresh_name(f"{src}_inv")
        add(inv, GateType.NOT, [src])
        inv_names[src] = inv

    pos = Polarity.POS

    def ref_name(ref: Ref) -> str:
        if ref.kind == "gate":  # the gate's DominoGate.instance_name
            return ref.name + ("$p" if ref.polarity is pos else "$n")
        if ref.kind == "const":
            cname = net.fresh_name("const")
            add(cname, GateType.CONST1 if ref.value else GateType.CONST0, [])
            return cname
        return ref.name if ref.polarity is pos else inv_names[ref.name]

    for gate in impl.topological_gate_order():
        add(gate.instance_name, gate.gate_type, [ref_name(r) for r in gate.fanins])

    for po, ref in impl.output_refs.items():
        inner = ref_name(ref)
        if impl.assignment[po] is Phase.NEGATIVE:
            out_inv = net.fresh_name(f"{po}_phase_inv")
            add(out_inv, GateType.NOT, [inner])
            net.add_output(po, out_inv)
        else:
            net.add_output(po, inner)
    return net

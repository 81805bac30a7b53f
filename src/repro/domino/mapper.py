"""Technology mapping of domino implementations onto the cell library.

Takes the inverter-free block produced by the phase transform,
materialises it as a plain network in one pass over its gates (they
are in dependency order), decomposes gates wider than the library
fanin limits into balanced cell trees in place, and annotates every
node with its cell.  The mapped design is what the "Size" columns of
the paper's tables count, and what the timing engine resizes.

A mapped network never changes after mapping (resizing only rescales
``size_factors``), so :class:`MappedDesign` compiles it once, when it
is built, into a :class:`CompiledNetlist`: the order of the walk that
validates it, fanins and fanout loads as index tuples.  Timing
analysis, every resizing iteration and the power simulation read that
instead of re-deriving the order and fanout map.
:func:`simulate_mapped_power` simulates the design over packed words
(:func:`repro.power.probability.simulate_words`) and counts bits for
every firing and toggle rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.network.duplication import DominoImplementation, implementation_network
from repro.network.netlist import GateType, LogicNetwork
from repro.domino.gates import DEFAULT_LIBRARY, DominoCell, DominoCellLibrary


def decompose_to_cells(
    network: LogicNetwork, library: DominoCellLibrary
) -> LogicNetwork:
    """Split AND/OR gates wider than the library limit into cell trees.

    Returns a new network; NOT/BUF nodes pass through unchanged.
    """
    net = network.copy(f"{network.name}_mapped")
    _decompose(net, library)
    net.validate()
    return net


def _decompose(net: LogicNetwork, library: DominoCellLibrary) -> None:
    """:func:`decompose_to_cells` in place, without validating."""
    for node in list(net.nodes.values()):
        if node.gate_type not in (GateType.AND, GateType.OR):
            continue
        limit = library.max_fanin(node.gate_type)
        operands = list(node.fanins)
        layer = 0
        while len(operands) > limit:
            plan = library.tree_arity_plan(node.gate_type, len(operands))
            next_operands: List[str] = []
            pos = 0
            for gi, size in enumerate(plan):
                group = operands[pos : pos + size]
                pos += size
                if len(group) == 1:
                    next_operands.append(group[0])
                    continue
                sub = net.fresh_name(f"{node.name}#t{layer}_{gi}")
                net._add_node(sub, node.gate_type, group)
                next_operands.append(sub)
            operands = next_operands
            layer += 1
        node.fanins = operands


@dataclass(frozen=True)
class CompiledNetlist:
    """A mapped network as index tuples, for timing and simulation.

    Node ``i`` is the ``i``-th node of the network in insertion order.
    Inputs, constants and latch outputs have no fanins and no cell; a
    gate without a cell is a zero-delay feedthrough (BUF).
    """

    names: Tuple[str, ...]
    #: Node indices in :meth:`LogicNetwork.topological_order`.
    order: Tuple[int, ...]
    fanins: Tuple[Tuple[int, ...], ...]
    cells: Tuple[Optional[DominoCell], ...]
    #: Per node, the ``(sink, input_cap)`` of every sink with a cell,
    #: in :meth:`LogicNetwork.fanout_map` order.
    loads: Tuple[Tuple[Tuple[str, float], ...], ...]
    #: PO drivers in output order, then latch data inputs.
    endpoints: Tuple[int, ...]

    @classmethod
    def build(cls, network: LogicNetwork, cells: Mapping[str, DominoCell]) -> "CompiledNetlist":
        order = network.validate()
        names = tuple(network.nodes)
        index = {name: i for i, name in enumerate(names)}
        nodes = list(network.nodes.values())
        fanins = [tuple([index[fi] for fi in node.fanins]) for node in nodes]
        node_cells = [cells.get(name) for name in names]
        # each node's sinks with a cell, in fanout_map order
        loads: List[List[Tuple[str, float]]] = [[] for _ in names]
        for name, cell, fanin_idx in zip(names, node_cells, fanins):
            if cell is not None:
                for fi in fanin_idx:
                    loads[fi].append((name, cell.input_cap))
        for i, node in enumerate(nodes):
            if node.gate_type.is_comb_source:  # no fanins, cell or loads
                fanins[i], node_cells[i], loads[i] = (), None, []
        endpoints = [index[driver] for _, driver in network.outputs]
        endpoints.extend(index[latch.fanins[0]] for latch in network.latches)
        return cls(
            names=names,
            order=tuple([index[name] for name in order]),
            fanins=tuple(fanins),
            cells=tuple(node_cells),
            loads=tuple([tuple(sinks) for sinks in loads]),
            endpoints=tuple(endpoints),
        )


@dataclass
class MappedDesign:
    """A cell-mapped domino design.

    Attributes
    ----------
    network:
        Decomposed network: every AND/OR node fits one domino cell,
        every NOT node is one static inverter.
    cells:
        Mapping node name -> :class:`DominoCell`.
    size_factors:
        Per-node transistor upsizing (timing engine writes these;
        1.0 = minimum size).
    compiled:
        The network compiled at construction; the network must not
        change afterwards.
    """

    network: LogicNetwork
    library: DominoCellLibrary
    cells: Dict[str, DominoCell]
    size_factors: Dict[str, float] = field(default_factory=dict)
    compiled: CompiledNetlist = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in self.cells:
            self.size_factors.setdefault(name, 1.0)
        self.compiled = CompiledNetlist.build(self.network, self.cells)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_area(self) -> float:
        """Area in equivalent minimum-size cells (resizing inflates it)."""
        return float(sum(self.size_factors[name] for name in self.cells))

    def standard_cell_count(self) -> int:
        """The tables' integer "Size" column: equivalent standard cells."""
        return int(round(self.cell_area()))

    def counts_by_cell(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for cell in self.cells.values():
            hist[cell.name] = hist.get(cell.name, 0) + 1
        return hist


def map_implementation(
    impl: DominoImplementation, library: Optional[DominoCellLibrary] = None
) -> MappedDesign:
    """Map a phase-transformed implementation to library cells."""
    library = library or DEFAULT_LIBRARY
    # The block is built here and used nowhere else: decompose it in place.
    net = implementation_network(impl)
    net.name = f"{net.name}_mapped"
    _decompose(net, library)
    return _assign_cells(net, library)


def map_network(
    block: LogicNetwork, library: Optional[DominoCellLibrary] = None
) -> MappedDesign:
    """Map an already inverter-free block network (AND/OR/NOT only)."""
    library = library or DEFAULT_LIBRARY
    return _assign_cells(decompose_to_cells(block, library), library)


def _assign_cells(net: LogicNetwork, library: DominoCellLibrary) -> MappedDesign:
    """The design of a decomposed network: one cell per AND/OR/NOT node."""
    cells: Dict[str, DominoCell] = {}
    # (gate type, fanin count) -> cell, keyed without hashing an enum
    widths: Dict[Tuple[bool, int], DominoCell] = {}
    and_, or_ = GateType.AND, GateType.OR
    for node in net.gates:
        t = node.gate_type
        if t is and_ or t is or_:
            key = (t is and_, len(node.fanins))
            cell = widths.get(key)
            if cell is None:
                cell = widths[key] = library.cell(t, key[1])
            cells[node.name] = cell
        elif t is GateType.NOT:
            cells[node.name] = library.inverter
        elif t is GateType.BUF:
            # Buffers do not survive the phase transform, but tolerate
            # them as zero-cost feedthroughs if present.
            continue
        else:
            raise ReproError(
                f"mapped block contains non-domino gate {node.name} ({t.value})"
            )
    return MappedDesign(network=net, library=library, cells=cells)


def simulate_mapped_power(
    design: MappedDesign,
    input_probs: Optional[Mapping[str, float]] = None,
    n_vectors: int = 4096,
    seed: int = 0,
    current_scale: float = 1.0,
) -> Dict[str, float]:
    """Monte-Carlo power of a mapped design (the tables' "Pwr" columns).

    Energy accounting per cycle:

    * domino cells charge their (sized) output cap whenever they fire,
      plus their clock cap every cycle;
    * static inverters driven by PIs/latches toggle on input change;
    * static inverters driven by domino cells toggle when the driver
      fires.

    Each signal is one word of ``n_vectors`` bits; a rate is a bit count
    over the vector count, the same float as the mean of the 0/1 values.

    Returns a dict with ``domino``, ``clock``, ``static``, ``total`` and
    ``current_ma`` entries.
    """
    from repro.power.probability import pack_words, random_source_batch, simulate_words

    net = design.network
    compiled = design.compiled
    names = compiled.names
    if input_probs is None:
        input_probs = {s: 0.5 for s in net.sources()}
    batch = random_source_batch(net, input_probs, n_vectors, seed)
    values = simulate_words(
        net, pack_words(batch), n_vectors, order=[names[i] for i in compiled.order]
    )
    # bits 0 .. n-2 of ``x ^ x >> 1`` flag a change between vectors k and k+1
    low_mask = (1 << (n_vectors - 1)) - 1 if n_vectors > 1 else 0

    sizes = design.size_factors
    domino_energy = 0.0
    clock_energy = 0.0
    static_energy = 0.0
    for i, cell in enumerate(compiled.cells):
        if cell is None:
            continue
        name = names[i]
        word = values[name]
        cap = cell.output_cap * sizes[name]
        if cell.is_domino:
            domino_energy += word.bit_count() / n_vectors * cap
            clock_energy += cell.clock_cap * sizes[name]
            continue
        driver = names[compiled.fanins[i][0]]
        if net.nodes[driver].gate_type in (GateType.INPUT, GateType.LATCH):
            toggles = (
                ((word ^ (word >> 1)) & low_mask).bit_count() / (n_vectors - 1)
                if n_vectors > 1
                else 0.0
            )
            static_energy += toggles * cap
        else:
            # Driven by a domino cell: follows the monotonic pulse.
            static_energy += values[driver].bit_count() / n_vectors * cap
    total = domino_energy + clock_energy + static_energy
    return {
        "domino": domino_energy,
        "clock": clock_energy,
        "static": static_energy,
        "total": total,
        "current_ma": total * current_scale,
    }

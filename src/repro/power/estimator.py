"""Fast phase-aware domino power estimation (paper Section 4.2).

The estimator evaluates the paper's objective

    P(assignment) = sum_i  S_i * C_i * P_i   over the domino block

(plus optional boundary-inverter and clock-load terms) for *many*
candidate phase assignments cheaply.  The enabling observation is that
output phases never change node *functions* — only which polarity of
each node is materialised.  So:

1. Compute each node's positive-polarity signal probability once
   (:mod:`repro.power.probability`); the negative realisation has
   probability ``1 - p`` (paper Property 4.1).
2. Precompute, for every primary output ``o`` and phase ``q``, the set
   ``S(o, q)`` of (node, polarity) gates its cone materialises, with
   the source inverters it needs, as one Python int over the
   2N-element polarity universe and the sources.  The cones are read
   from the network's :class:`~repro.network.duplication.PolaritySpace`,
   the one place polarity is resolved, in one pass over its gates; a
   phase transform walks the same space, so the union of the selected
   cones is exactly the block it builds.
3. For every run of eight outputs, tabulate the union each of its 256
   phase patterns selects.  The area
   of an arbitrary assignment is then one table lookup per eight
   outputs, ORed together, and a popcount; its power unpacks the union
   back to the boolean mask and takes a dot product — no re-synthesis
   inside the optimisation loop.
4. Remember each power breakdown by the assignment's bitmask.  A search
   measures many assignments more than once (the pairwise loop's
   ``(+, +)`` candidate is the current assignment, and different pairs
   propose the same single flip), so a repeated query rebuilds the
   breakdown from the stored fields instead of unpacking and summing
   again.  The memo belongs to one evaluator and is cleared when it
   reaches :data:`_MEMO_LIMIT` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.network.duplication import Polarity, PolaritySpace, Ref, phase_transform
from repro.network.netlist import GateType, LogicNetwork
from repro.phase import Phase, PhaseAssignment
from repro.power.activity import (
    boundary_input_inverter_switching,
    boundary_output_inverter_switching,
)
from repro.power.probability import node_probabilities


@dataclass
class DominoPowerModel:
    """Electrical model parameters for the estimator and simulator.

    All capacitances are in arbitrary units; the paper's experiments use
    ``gate_cap = 1`` and a neutral gate penalty.

    Attributes
    ----------
    gate_cap:
        Output capacitance C_i of a domino gate.
    cap_per_fanin:
        Extra output-stage capacitance per gate input (0 disables).
    inverter_cap:
        Capacitance of a static boundary inverter.
    clock_cap_per_gate:
        Clock-pin load switched every cycle by every domino gate —
        models the domino clock-loading cost; it makes area duplication
        directly visible to the power objective.
    and_series_penalty:
        The paper's P_i speed/energy penalty per extra series transistor
        in AND-type gates.  Gate factor = 1 + penalty * (fanin - 1).
    include_boundary_inverters:
        Count the static inverters at block inputs/outputs (Figure 5
        counts them; the Section 5 objective uses the block only).
    current_scale:
        Multiplier converting switched-capacitance units per cycle into
        the reported "mA" figure (PowerMill substitute calibration).
    """

    gate_cap: float = 1.0
    cap_per_fanin: float = 0.0
    inverter_cap: float = 1.0
    clock_cap_per_gate: float = 0.0
    and_series_penalty: float = 0.0
    include_boundary_inverters: bool = True
    current_scale: float = 1.0

    def gate_factor(self, gate_type: GateType, n_fanins: int) -> float:
        """Capacitance * penalty factor of a domino gate."""
        cap = self.gate_cap + self.cap_per_fanin * n_fanins
        if gate_type is GateType.AND and n_fanins > 1:
            cap *= 1.0 + self.and_series_penalty * (n_fanins - 1)
        return cap


@dataclass
class PowerBreakdown:
    """Decomposed power estimate for one phase assignment."""

    domino: float
    input_inverters: float
    output_inverters: float
    clock: float
    n_gates: int
    n_input_inverters: int
    n_output_inverters: int
    probability_method: str = "bdd"

    @property
    def total(self) -> float:
        return self.domino + self.input_inverters + self.output_inverters + self.clock

    @property
    def area_cells(self) -> int:
        """Unmapped cell-count proxy: gates plus boundary inverters."""
        return self.n_gates + self.n_input_inverters + self.n_output_inverters


#: Outputs per union table.  A query makes one lookup per run of this
#: many outputs, into a table of ``2 ** _CHUNK`` unions.
_CHUNK = 8
_PATTERN = (1 << _CHUNK) - 1
#: The set bit positions of each chunk pattern, lowest first.
_SET_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(j for j in range(_CHUNK) if pattern >> j & 1) for pattern in range(1 << _CHUNK)
)
#: The :class:`PowerBreakdown` fields, in declaration order.
_Fields = Tuple[float, float, float, float, int, int, int, str]

#: Breakdowns one evaluator remembers before it clears its memo.  A
#: 56-output flow makes 79 to 368 distinct power queries of its 1,542;
#: industry3 (199 outputs) makes 5,752 of 19,703, and at this bound
#: 13,914 of its 13,951 repeats are still answered from the memo.
_MEMO_LIMIT = 4096


class PhaseEvaluator:
    """Evaluate power/area of arbitrary phase assignments in O(PO / 8)
    int lookups.

    Each (output, phase) cone is one Python int, its gate bits from bit
    0 and its source-inverter bits from the next byte boundary up.  For
    every run of eight outputs of :attr:`outputs`, a 256-entry table
    holds the union of the cones each phase pattern of the run selects
    (bit ``j`` set = the run's output ``j`` negative).  A query looks
    each 8-bit run of the assignment's bitmask up in its table and ORs
    the results.  The tables take ``ceil(PO / 8) * 256`` ints of
    ``slots + sources`` bits: about 0.35 MB at 56 outputs and 2.3 MB at
    199.

    :meth:`breakdown` (and so :meth:`power`) remembers the fields of
    every breakdown it computes, keyed by the assignment's bitmask over
    :attr:`outputs`, and clears that memo when it reaches
    :data:`_MEMO_LIMIT` entries.  A repeated query returns a new
    :class:`PowerBreakdown` of the stored fields, equal to the first
    answer.  :meth:`area` keeps nothing: a hill climb's area queries
    are nearly all distinct.  Threads may share an evaluator without a
    lock: the memo is only read, written and cleared one key at a time,
    so a race can at worst compute one breakdown twice or clear the
    memo a few entries late, never change an answer.

    Parameters
    ----------
    network:
        AOI network (run :func:`repro.network.ops.to_aoi` first).
    input_probs:
        PI (and latch-output) signal probabilities; default 0.5.
    model:
        :class:`DominoPowerModel`.
    method / n_vectors / seed / max_nodes:
        Forwarded to :func:`repro.power.probability.node_probabilities`.
    """

    def __init__(
        self,
        network: LogicNetwork,
        input_probs: Optional[Mapping[str, float]] = None,
        model: Optional[DominoPowerModel] = None,
        method: str = "auto",
        ordering: str = "domino",
        max_nodes: int = 500_000,
        n_vectors: int = 4096,
        seed: int = 0,
    ):
        self.network = network
        self.model = model or DominoPowerModel()
        self.space = PolaritySpace(network)
        prob_result = node_probabilities(
            network,
            input_probs=input_probs,
            method=method,
            ordering=ordering,
            max_nodes=max_nodes,
            n_vectors=n_vectors,
            seed=seed,
        )
        self.probability_result = prob_result
        self.node_probs: Dict[str, float] = prob_result.probabilities
        self.input_probs: Dict[str, float] = {
            s: self.node_probs.get(s, 0.5) for s in self.space.sources
        }

        # Per-slot signal probability and capacitance factor.
        n = self.space.n_slots
        self.slot_probs = np.zeros(n)
        self.slot_caps = np.zeros(n)
        for key, idx in self.space.gate_index.items():
            name, pol = key
            p = self.node_probs.get(name)
            if p is None:
                # Node outside every PO cone: probability irrelevant but
                # must exist; compute from a quick local default.
                p = 0.5
            self.slot_probs[idx] = p if pol is Polarity.POS else 1.0 - p
            gate = self.space.gates[key]
            self.slot_caps[idx] = self.model.gate_factor(gate.gate_type, len(gate.fanins))

        self._slot_weights = self.slot_probs * self.slot_caps
        self.source_inv_cost = np.array(
            [
                boundary_input_inverter_switching(self.input_probs[s])
                * self.model.inverter_cap
                for s in self.space.sources
            ]
        )

        # Per-(output, phase) driver references and packed cones: row
        # 2k + b is output k of ``outputs`` in phase b (0 positive, 1
        # negative).  Assignments built from ``outputs`` share the
        # tuple, so their ``as_bits`` in this order is free.
        self.outputs: Tuple[str, ...] = tuple(network.output_names())
        self._driver_ref: Dict[Tuple[str, Phase], Ref] = {}
        self._gate_bytes = -(-n // 8)
        self._n_bytes = self._gate_bytes + -(-len(self.space.sources) // 8)
        self._inv_shift = 8 * self._gate_bytes
        cones = self._slot_cones()
        self._rows: List[int] = []
        for po, driver in network.outputs:
            for phase in (Phase.POSITIVE, Phase.NEGATIVE):
                pol = Polarity.POS if phase is Phase.POSITIVE else Polarity.NEG
                ref = self.space.resolve(driver, pol)
                self._driver_ref[(po, phase)] = ref
                self._rows.append(self._ref_cone(ref, cones))
        self._row_of: Dict[str, int] = {po: 2 * k for k, po in enumerate(self.outputs)}
        self._tables = _union_tables(self._rows)
        # assignment bitmask -> the PowerBreakdown fields it gave
        self._breakdowns: Dict[int, _Fields] = {}
        # Boundary-inverter term of each output when it is negative.
        self._output_inv_cost: List[float] = []
        if self.model.include_boundary_inverters:
            self._output_inv_cost = [
                boundary_output_inverter_switching(
                    self.ref_probability(self._driver_ref[(po, Phase.NEGATIVE)])
                )
                * self.model.inverter_cap
                for po in self.outputs
            ]

    # -- cones ---------------------------------------------------------------
    def _slot_cones(self) -> Dict[Tuple[str, Polarity], int]:
        """Every slot's cone, in one pass over the space's gates, which
        are in dependency order: a slot's own bit, ORed with its gate
        fanins' cones and the inverter bit of each negative source
        fanin."""
        cones: Dict[Tuple[str, Polarity], int] = {}
        gate_index, source_index = self.space.gate_index, self.space.source_index
        for key, gate in self.space.gates.items():
            cone = 1 << gate_index[key]
            for ref in gate.fanins:
                if ref.kind == "gate":
                    cone |= cones[ref.name, ref.polarity]
                elif ref.kind != "const" and ref.polarity is Polarity.NEG:
                    cone |= 1 << (self._inv_shift + source_index[ref.name])
            cones[key] = cone
        return cones

    def _ref_cone(self, ref: Ref, cones: Mapping[Tuple[str, Polarity], int]) -> int:
        """The cone a reference reads: its gate's cone, the inverter bit
        of a source in negative polarity, or nothing."""
        if ref.kind == "gate":
            return cones[ref.key]
        if ref.kind != "const" and ref.polarity is Polarity.NEG:
            return 1 << (self._inv_shift + self.space.source_index[ref.name])
        return 0

    # -- reference probabilities ------------------------------------------
    def ref_probability(self, ref: Ref) -> float:
        if ref.kind == "const":
            return 1.0 if ref.value else 0.0
        if ref.kind in ("input", "latch"):
            p = self.input_probs[ref.name]
            return p if ref.polarity is Polarity.POS else 1.0 - p
        return float(self.slot_probs[self.space.gate_index[ref.key]])

    # -- assignment evaluation ----------------------------------------------
    def _union(self, negative: int) -> int:
        """The union of the cones a bitmask over :attr:`outputs` (bit
        set = negative) selects."""
        union = 0
        for table in self._tables:
            union |= table[negative & _PATTERN]
            negative >>= _CHUNK
        return union

    def breakdown(self, assignment: PhaseAssignment) -> PowerBreakdown:
        """Full power decomposition for one assignment, from the memo
        when this evaluator has measured the assignment before."""
        memo = self._breakdowns
        bits = assignment.as_bits(self.outputs)
        fields = memo.get(bits)
        if fields is None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            fields = memo[bits] = self._breakdown_fields(bits)
        return PowerBreakdown(*fields)

    def _breakdown_fields(self, bits: int) -> _Fields:
        """The :class:`PowerBreakdown` fields of a bitmask over
        :attr:`outputs`, in declaration order."""
        union = self._union(bits)
        packed = union.to_bytes(self._n_bytes, "little")
        gates = _unpack(packed[: self._gate_bytes], self.space.n_slots)
        domino = float(np.dot(gates, self._slot_weights))
        n_input_inverters = (union >> self._inv_shift).bit_count()
        n_gates = union.bit_count() - n_input_inverters
        clock = self.model.clock_cap_per_gate * n_gates

        input_inv = 0.0
        output_inv = 0.0
        if self.model.include_boundary_inverters:
            invs = _unpack(packed[self._gate_bytes :], len(self.space.sources))
            input_inv = float(np.dot(invs, self.source_inv_cost))
            # the negative outputs' terms, added in output order
            costs = self._output_inv_cost
            negative, offset = bits, 0
            while negative:
                for j in _SET_BITS[negative & _PATTERN]:
                    output_inv += costs[offset + j]
                negative >>= _CHUNK
                offset += _CHUNK
        return (
            domino,
            input_inv,
            output_inv,
            clock,
            n_gates,
            n_input_inverters,
            bits.bit_count(),
            self.probability_result.method,
        )

    def power(self, assignment: PhaseAssignment) -> float:
        """Estimated power (arbitrary units) of an assignment."""
        return self.breakdown(assignment).total

    def area(self, assignment: PhaseAssignment) -> int:
        """Cell-count proxy: domino gates + static boundary inverters."""
        bits = assignment.as_bits(self.outputs)
        return self._union(bits).bit_count() + bits.bit_count()

    def _cone_gates(self, po: str, phase: Phase) -> int:
        row = self._rows[self._row_of[po] + (phase is Phase.NEGATIVE)]
        return row & ((1 << self._inv_shift) - 1)

    def average_cone_probability(
        self, assignment: PhaseAssignment, po: str
    ) -> float:
        """The paper's A_i: mean realised signal probability over cone D_i."""
        phase = assignment[po]
        gates = self._cone_gates(po, phase)
        n = gates.bit_count()
        if n == 0:
            return self.ref_probability(self._driver_ref[(po, phase)])
        mask = _unpack(gates.to_bytes(self._gate_bytes, "little"), self.space.n_slots)
        return float(np.dot(mask, self.slot_probs) / n)

    def cone_size(self, po: str, phase: Optional[Phase] = None) -> int:
        """|D_i|: gates materialised by output ``po`` (either phase has the
        same count, so the phase argument is optional)."""
        return self._cone_gates(po, phase or Phase.POSITIVE).bit_count()


def _unpack(packed: bytes, n: int) -> np.ndarray:
    """The first ``n`` bits of little-endian ``packed`` as a bool mask,
    bit ``i`` at element ``i``."""
    return np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8), count=n, bitorder="little"
    ).view(bool)


def _union_tables(rows: Sequence[int]) -> List[List[int]]:
    """For each run of :data:`_CHUNK` outputs, the union of the rows
    each phase pattern of the run selects, indexed by the pattern: entry
    ``p`` ORs row ``2k + (p >> j & 1)`` for the run's ``j``-th output
    ``k``."""
    n_outputs = len(rows) // 2
    tables = []
    for start in range(0, n_outputs, _CHUNK):
        table = [0]
        for k in range(start, min(start + _CHUNK, n_outputs)):
            positive, negative = rows[2 * k], rows[2 * k + 1]
            table = [u | positive for u in table] + [u | negative for u in table]
        tables.append(table)
    return tables


def estimate_power(
    network: LogicNetwork,
    assignment: PhaseAssignment,
    input_probs: Optional[Mapping[str, float]] = None,
    model: Optional[DominoPowerModel] = None,
    method: str = "auto",
    seed: int = 0,
) -> PowerBreakdown:
    """One-shot power estimate via an explicit phase transform.

    Slower than :class:`PhaseEvaluator` for repeated queries, and
    independent of its cones and union tables — used as a cross-check
    in tests.  It shares the polarity resolution
    (:class:`PolaritySpace`) with the evaluator.  Input inverters are
    summed in sorted name order, so the float does not depend on set
    iteration order.
    """
    model = model or DominoPowerModel()
    impl = phase_transform(network, assignment)
    prob_result = node_probabilities(
        network, input_probs=input_probs, method=method, seed=seed
    )
    probs = prob_result.probabilities
    input_p = {s: probs.get(s, 0.5) for s in network.sources()}

    domino = 0.0
    for gate in impl.gates.values():
        p = probs[gate.name]
        if gate.polarity is Polarity.NEG:
            p = 1.0 - p
        domino += p * model.gate_factor(gate.gate_type, len(gate.fanins))
    clock = model.clock_cap_per_gate * impl.n_gates

    input_inv = 0.0
    output_inv = 0.0
    if model.include_boundary_inverters:
        for src in sorted(impl.input_inverters):
            input_inv += (
                boundary_input_inverter_switching(input_p[src]) * model.inverter_cap
            )
        for po in impl.output_inverters:
            ref = impl.output_refs[po]
            if ref.kind == "const":
                p = 1.0 if ref.value else 0.0
            elif ref.kind in ("input", "latch"):
                p = input_p[ref.name]
                if ref.polarity is Polarity.NEG:
                    p = 1.0 - p
            else:
                p = probs[ref.name]
                if ref.polarity is Polarity.NEG:
                    p = 1.0 - p
            output_inv += boundary_output_inverter_switching(p) * model.inverter_cap

    return PowerBreakdown(
        domino=domino,
        input_inverters=input_inv,
        output_inverters=output_inv,
        clock=clock,
        n_gates=impl.n_gates,
        n_input_inverters=len(impl.input_inverters),
        n_output_inverters=len(impl.output_inverters),
        probability_method=prob_result.method,
    )

"""Unit-delay glitch analysis (paper Property 2.2).

Property 2.2: *domino gates never glitch* — once a gate discharges it
cannot recharge until the next precharge, so zero-delay switching
counts are exact for domino blocks.  Static CMOS has no such luxury:
unequal path delays produce spurious transitions that zero-delay
analysis misses entirely.

This module quantifies that difference with a unit-delay time-frame
simulator: when the inputs step from one vector to the next, every
gate re-evaluates one time unit after its fanins, and the output may
wiggle several times before settling.  Counting all transitions gives
the glitch-inclusive activity; comparing against the zero-delay count
isolates the glitch power a static implementation would pay and a
domino implementation provably does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.errors import PowerError
from repro.network.netlist import GateType, LogicNetwork
from repro.network.topo import depth as network_depth
from repro.power.probability import random_source_batch, simulate_batch


@dataclass
class GlitchReport:
    """Transition accounting for a static implementation of a network."""

    zero_delay_transitions: float  # per cycle, summed over gates
    unit_delay_transitions: float  # per cycle, including glitches
    per_node_glitches: Dict[str, float]
    n_cycles: int

    @property
    def glitch_transitions(self) -> float:
        return self.unit_delay_transitions - self.zero_delay_transitions

    @property
    def glitch_fraction(self) -> float:
        """Fraction of all transitions that are spurious."""
        if self.unit_delay_transitions == 0:
            return 0.0
        return self.glitch_transitions / self.unit_delay_transitions


def unit_delay_glitch_report(
    network: LogicNetwork,
    input_probs: Optional[Mapping[str, float]] = None,
    n_cycles: int = 1024,
    seed: int = 0,
) -> GlitchReport:
    """Measure zero-delay vs unit-delay transition counts.

    The network is treated as a *static* implementation: every gate has
    one unit of delay.  For each consecutive input-vector pair the
    simulator plays out ``depth + 1`` time frames and counts every
    output change of every gate (vectorised over all cycle pairs).
    Sequential networks are rejected — partition first.
    """
    if not network.is_combinational:
        raise PowerError("glitch analysis requires a combinational network")
    if n_cycles < 2:
        raise PowerError("need at least 2 cycles to observe transitions")
    if input_probs is None:
        input_probs = {pi: 0.5 for pi in network.inputs}

    batch = random_source_batch(network, input_probs, n_cycles, seed=seed)
    order = [
        name
        for name in network.topological_order()
        if not network.nodes[name].gate_type.is_source
    ]
    gates = [name for name in order if network.nodes[name].gate_type is not GateType.LATCH]

    # Zero-delay reference: settled values each cycle.
    settled = simulate_batch(network, batch)
    zero_delay = 0.0
    for name in gates:
        arr = settled[name]
        zero_delay += float(np.sum(arr[1:] != arr[:-1]))

    # Unit-delay time frames.  State: current waveform value per node,
    # initialised to the settled values of cycle 0; then for each cycle
    # step the inputs to the next vector and propagate frame by frame.
    n_pairs = n_cycles - 1
    current: Dict[str, np.ndarray] = {}
    for name in network.inputs:
        current[name] = batch[name][:-1].copy()
    for name in gates:
        current[name] = settled[name][:-1].copy()

    next_inputs = {name: batch[name][1:] for name in network.inputs}
    transitions: Dict[str, np.ndarray] = {
        name: np.zeros(n_pairs, dtype=np.int64) for name in gates
    }

    frames = network_depth(network) + 1
    # Apply the input step at frame 0.
    for name in network.inputs:
        current[name] = next_inputs[name]
    for _frame in range(frames):
        new_values: Dict[str, np.ndarray] = {}
        for name in gates:
            node = network.nodes[name]
            fanin_arrays = [current[fi] for fi in node.fanins]
            t = node.gate_type
            if t is GateType.AND:
                val = np.logical_and.reduce(fanin_arrays)
            elif t is GateType.OR:
                val = np.logical_or.reduce(fanin_arrays)
            elif t is GateType.NOT:
                val = ~fanin_arrays[0]
            elif t is GateType.BUF:
                val = fanin_arrays[0]
            elif t is GateType.NAND:
                val = ~np.logical_and.reduce(fanin_arrays)
            elif t is GateType.NOR:
                val = ~np.logical_or.reduce(fanin_arrays)
            elif t is GateType.XOR:
                val = np.logical_xor.reduce(fanin_arrays)
            elif t is GateType.XNOR:
                val = ~np.logical_xor.reduce(fanin_arrays)
            elif t is GateType.MUX:
                sel, d0, d1 = fanin_arrays
                val = np.where(sel, d1, d0)
            elif t is GateType.SOP:
                val = _sop_batch(node, fanin_arrays, n_pairs)
            elif t in (GateType.CONST0, GateType.CONST1):
                val = np.full(n_pairs, t is GateType.CONST1, dtype=bool)
            else:  # pragma: no cover
                raise PowerError(f"cannot glitch-simulate {t.value}")
            new_values[name] = val
        for name in gates:
            transitions[name] += (new_values[name] != current[name]).astype(np.int64)
            current[name] = new_values[name]

    unit_delay = float(sum(int(tr.sum()) for tr in transitions.values()))
    per_node = {}
    for name in gates:
        settled_changes = float(np.sum(settled[name][1:] != settled[name][:-1]))
        per_node[name] = (float(transitions[name].sum()) - settled_changes) / n_pairs

    return GlitchReport(
        zero_delay_transitions=zero_delay / n_pairs,
        unit_delay_transitions=unit_delay / n_pairs,
        per_node_glitches=per_node,
        n_cycles=n_cycles,
    )


def _sop_batch(node, fanin_arrays: List[np.ndarray], batch: int) -> np.ndarray:
    cover = node.cover
    acc = np.zeros(batch, dtype=bool)
    for cube in cover.cubes:
        term = np.ones(batch, dtype=bool)
        for lit, arr in zip(cube, fanin_arrays):
            if lit == "1":
                term &= arr
            elif lit == "0":
                term &= ~arr
        acc |= term
    if cover.output_value == "0":
        acc = ~acc
    return acc


def domino_glitch_check(impl, input_probs=None, n_cycles: int = 512, seed: int = 0) -> bool:
    """Verify Property 2.2 on a domino implementation.

    A domino gate's evaluation is monotonic within a cycle: with all
    gates evaluating on settled (zero-delay) values, the per-cycle
    charge count equals the firing count — there is no frame-to-frame
    wiggle to add.  The check recomputes each gate's value from partial
    (frame-limited) fanin information and asserts monotone 0->1
    behaviour: a gate that is 1 at frame t stays 1 at frame t+1.
    """
    from repro.network.duplication import DominoImplementation
    from repro.power.simulator import evaluate_implementation_batch

    assert isinstance(impl, DominoImplementation)
    network = impl.network
    if input_probs is None:
        input_probs = {s: 0.5 for s in network.sources()}
    batch = random_source_batch(network, input_probs, n_cycles, seed=seed)

    # Frame-by-frame monotone evaluation: gates start precharged (0 at
    # the buffered output) and may only rise as fanins arrive.
    gate_order = impl.topological_gate_order()
    frames = len(gate_order) + 1
    values = {gate.key: np.zeros(n_cycles, dtype=bool) for gate in gate_order}
    final = evaluate_implementation_batch(impl, batch)
    for _frame in range(frames):
        for gate in gate_order:
            fanin_vals = []
            for ref in gate.fanins:
                if ref.kind == "gate":
                    fanin_vals.append(values[ref.key])
                else:
                    from repro.power.simulator import _ref_values

                    fanin_vals.append(_ref_values(ref, batch, values, n_cycles))
            if gate.gate_type is GateType.AND:
                new = np.logical_and.reduce(fanin_vals)
            else:
                new = np.logical_or.reduce(fanin_vals)
            # Monotonicity: once high, stays high within the cycle.
            if np.any(values[gate.key] & ~new):
                return False
            values[gate.key] = values[gate.key] | new
    # And the monotone fixpoint equals the zero-delay result.
    for key, arr in final.items():
        if not np.array_equal(values[key], arr):
            return False
    return True

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
from typing import Dict, Mapping, Optional

from repro.errors import PowerError
from repro.network.duplication import DominoImplementation, implementation_network
from repro.network.netlist import LogicNetwork
from repro.network.topo import depth as network_depth
from repro.power.probability import (
    _evaluate_words,
    pack_words,
    random_source_batch,
    simulate_words,
)


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
    output change of every gate.  All cycle pairs run at once, one bit
    each of a word per signal, and a frame is one pass of the zero-delay
    simulator's gate loop that reads its fanins from the previous frame.
    Sequential networks are rejected — partition first.
    """
    if not network.is_combinational:
        raise PowerError("glitch analysis requires a combinational network")
    if n_cycles < 2:
        raise PowerError("need at least 2 cycles to observe transitions")
    if input_probs is None:
        input_probs = {pi: 0.5 for pi in network.inputs}

    batch = random_source_batch(network, input_probs, n_cycles, seed=seed)
    nodes = network.nodes
    order = network.topological_order()
    gates = [name for name in order if not nodes[name].gate_type.is_source]

    # Zero-delay reference: settled values each cycle.
    settled = simulate_words(network, pack_words(batch), n_cycles, order=order)
    # Bit k of a pair word belongs to the step from vector k to k + 1.
    n_pairs = n_cycles - 1
    pair_mask = (1 << n_pairs) - 1
    settled_changes = {
        name: ((settled[name] ^ (settled[name] >> 1)) & pair_mask).bit_count()
        for name in gates
    }

    # Unit-delay time frames.  Every gate starts at its settled value
    # under the earlier vector; the inputs step to the later vector at
    # frame 0 and constants hold, so every source is held at its
    # settled word shifted to the later vector.
    held = {name: settled[name] >> 1 for name in order if nodes[name].gate_type.is_source}
    current = dict(held)
    for name in gates:
        current[name] = settled[name] & pair_mask
    transitions = dict.fromkeys(gates, 0)
    for _frame in range(network_depth(network) + 1):
        frame = dict(held)
        _evaluate_words(nodes, gates, frame, current, pair_mask)
        for name in gates:
            transitions[name] += (frame[name] ^ current[name]).bit_count()
        current = frame

    per_node = {
        name: (float(transitions[name]) - float(settled_changes[name])) / n_pairs
        for name in gates
    }
    return GlitchReport(
        zero_delay_transitions=float(sum(settled_changes.values())) / n_pairs,
        unit_delay_transitions=float(sum(transitions.values())) / n_pairs,
        per_node_glitches=per_node,
        n_cycles=n_cycles,
    )


def domino_glitch_check(
    impl: DominoImplementation,
    input_probs: Optional[Mapping[str, float]] = None,
    n_cycles: int = 512,
    seed: int = 0,
) -> bool:
    """Verify Property 2.2 on a domino implementation.

    A domino gate's evaluation is monotonic within a cycle: with all
    gates evaluating on settled (zero-delay) values, the per-cycle
    charge count equals the firing count — there is no frame-to-frame
    wiggle to add.  The check recomputes each gate's value from partial
    (frame-limited) fanin information and asserts monotone 0->1
    behaviour: a gate that is 1 at frame t stays 1 at frame t+1.

    Every domino gate starts precharged (0 at the buffered output); the
    sources, constants and static input inverters hold their settled
    words.  Each frame evaluates every gate from the previous frame's
    words, until a frame changes no word; the result must then equal
    the zero-delay values.
    """
    network = impl.network
    if input_probs is None:
        input_probs = {s: 0.5 for s in network.sources()}
    block = implementation_network(impl)
    batch = random_source_batch(network, input_probs, n_cycles, seed=seed)
    settled = simulate_words(block, pack_words(batch), n_cycles)

    domino = [gate.instance_name for gate in impl.gates.values()]
    held = dict(settled)
    for name in domino:
        del held[name]
    previous = dict(held)
    previous.update(dict.fromkeys(domino, 0))
    mask = (1 << n_cycles) - 1
    for _frame in range(len(domino) + 1):
        frame = dict(held)
        _evaluate_words(block.nodes, domino, frame, previous, mask)
        # Monotonicity: once high, stays high within the cycle.
        if any(previous[name] & ~frame[name] for name in domino):
            return False
        if frame == previous:
            break
        previous = frame
    # And the monotone fixpoint equals the zero-delay result.
    return all(previous[name] == settled[name] for name in domino)

"""Deterministic synthetic circuit generators.

The paper evaluates on MCNC benchmarks (apex7, frg1, x1, x3) and three
proprietary Intel control blocks.  Neither the BLIF files nor the Intel
circuits ship with this reproduction (no network access, proprietary
data), so we generate *control-logic-like* multi-level networks with
the paper's exact PI/PO counts and calibrated gate counts:

* shallow, convergent cones (the structure Section 4.2.2 describes);
* windowed PI supports so per-output BDDs stay small while adjacent
  cones still share logic (non-zero O(i,j) overlap, the quantity the
  cost function keys on);
* inverters sprinkled through the network, as technology-independent
  synthesis leaves them (Step 1 of the Puri flow);
* fully seeded, so every bench run sees the identical circuit.

Real MCNC BLIF files can be dropped in via :func:`repro.network.blif.load_blif`
and run through the same flow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ReproError
from repro.network.netlist import GateType, LogicNetwork


@dataclass
class GeneratorConfig:
    """Knobs of :func:`random_control_network`.

    Inverter placement mirrors what SOP-based technology-independent
    synthesis actually produces: mostly negated *input literals*
    (``pi_literal_negation_probability``), some complemented output
    functions (``output_inverter_probability``, which phase assignment
    can absorb), and only occasional inverters trapped deep inside the
    network (``inverter_probability``, whose duplication no phase
    choice can avoid).
    """

    n_inputs: int
    n_outputs: int
    n_gates: int
    seed: int = 0
    support_size: int = 12
    outputs_per_window: int = 3
    max_fanin: int = 5
    inverter_probability: float = 0.05
    pi_literal_negation_probability: float = 0.25
    output_inverter_probability: float = 0.4
    #: Probability that a window is OR-dominant (vs AND-dominant).
    or_probability: float = 0.6
    #: How strongly a window's gates follow its dominant type.  High
    #: dominance gives coherently skewed cone probabilities — the wide
    #: decoders / wide selects of real control logic.
    window_dominance: float = 0.8

    def validate(self) -> None:
        if self.n_inputs < 2:
            raise ReproError("need at least 2 primary inputs")
        if self.n_outputs < 1:
            raise ReproError("need at least 1 primary output")
        if self.n_gates < self.n_outputs:
            raise ReproError("need at least one gate per output")
        if self.max_fanin < 2:
            raise ReproError("max fanin must be at least 2")
        for prob_name in (
            "inverter_probability",
            "pi_literal_negation_probability",
            "output_inverter_probability",
            "or_probability",
            "window_dominance",
        ):
            value = getattr(self, prob_name)
            if not (0.0 <= value <= 1.0):
                raise ReproError(f"{prob_name} out of range: {value}")


def random_control_network(
    name: str,
    config: GeneratorConfig,
) -> LogicNetwork:
    """Generate a combinational control-logic-like network.

    Primary outputs are grouped into *windows*; each window owns a
    contiguous (wrapping) slice of the primary inputs and a private
    gate DAG, so outputs inside a window share logic heavily while
    different windows are disjoint.  Window supports overlap on PIs,
    mimicking the convergent fan-in structure of real control blocks.
    """
    config.validate()
    rng = random.Random(config.seed)
    net = LogicNetwork(name)
    pis = [f"x{i}" for i in range(config.n_inputs)]
    for pi in pis:
        net.add_input(pi)

    n_windows = max(1, (config.n_outputs + config.outputs_per_window - 1) // config.outputs_per_window)
    gates_per_window = max(2, config.n_gates // n_windows)
    support = min(config.support_size, config.n_inputs)
    stride = max(1, (config.n_inputs - support // 2) // max(n_windows, 1))

    po_index = 0
    for w in range(n_windows):
        start = (w * stride) % config.n_inputs
        window_pis = [pis[(start + k) % config.n_inputs] for k in range(support)]
        pool: List[str] = list(window_pis)
        created: List[str] = []
        # ``unused`` tracks signals not yet read by any gate, so the
        # final collector gates can pull the whole window DAG into the
        # primary-output cones (no dead logic).
        unused: List[str] = []
        inverter_cache: Dict[str, str] = {}

        def negated(signal: str) -> str:
            """Shared NOT node over ``signal`` (one inverter per signal)."""
            if signal not in inverter_cache:
                iname = net.fresh_name(f"{signal}_not")
                net.add_gate(iname, GateType.NOT, [signal])
                inverter_cache[signal] = iname
            return inverter_cache[signal]

        dominant = GateType.OR if rng.random() < config.or_probability else GateType.AND
        minority = GateType.AND if dominant is GateType.OR else GateType.OR
        for g in range(gates_per_window):
            gate_type = dominant if rng.random() < config.window_dominance else minority
            k = rng.randint(2, config.max_fanin)
            k = min(k, len(pool))
            # Bias selection toward recently created signals: deeper,
            # more convergent cones.
            fanins: List[str] = []
            while len(fanins) < k:
                if unused and rng.random() < 0.45:
                    cand = unused[rng.randrange(len(unused))]
                elif created and rng.random() < 0.6:
                    cand = created[int(rng.triangular(0, len(created), len(created) - 1))]
                else:
                    cand = rng.choice(window_pis)
                    # Negated input literals, as SOP covers produce.
                    if rng.random() < config.pi_literal_negation_probability:
                        cand = negated(cand)
                if cand not in fanins:
                    fanins.append(cand)
            for fi in fanins:
                if fi in unused:
                    unused.remove(fi)
            gname = f"w{w}_g{g}"
            net.add_gate(gname, gate_type, fanins)
            out_signal = gname
            # Rare trapped inverters, restricted to first-level gates:
            # a deep trapped inverter would demand the negative polarity
            # of its whole (heavily shared) fanin cone and duplicate the
            # entire window regardless of phase choice, which is not how
            # optimised technology-independent networks look.
            shallow = all(fi in window_pis or fi in inverter_cache.values() for fi in fanins)
            if shallow and rng.random() < config.inverter_probability:
                out_signal = negated(gname)
            created.append(out_signal)
            pool.append(out_signal)
            unused.append(out_signal)

        # Roots: collector gates over the yet-unused signals so every
        # created gate lies inside some primary-output cone.
        n_here = min(config.outputs_per_window, config.n_outputs - po_index)
        rng.shuffle(unused)
        shares = [unused[r::n_here] for r in range(n_here)] if unused else []
        for r in range(n_here):
            leftovers = shares[r] if r < len(shares) else []
            # Each root also taps a couple of random created gates so
            # the window's output cones overlap (non-zero O(i,j)).
            taps = rng.sample(created, min(len(created), 2)) if created else []
            fanins = list(dict.fromkeys(leftovers + taps))
            if len(fanins) >= 2:
                root = f"w{w}_root{r}"
                gate_type = GateType.OR if rng.random() < 0.5 else GateType.AND
                net.add_gate(root, gate_type, fanins)
                driver = root
            elif fanins:
                driver = fanins[0]
            else:
                driver = rng.choice(created) if created else rng.choice(window_pis)
            # Complemented output functions: the inverters Step 2 of the
            # Puri flow exists to remove.
            if rng.random() < config.output_inverter_probability:
                driver = negated(driver)
            net.add_output(f"out{po_index}", driver)
            po_index += 1
        if po_index >= config.n_outputs:
            break

    # Degenerate configs can finish windows early; round-robin any
    # remaining outputs onto existing drivers.
    all_gates = [n.name for n in net.gates]
    while po_index < config.n_outputs:
        net.add_output(f"out{po_index}", rng.choice(all_gates))
        po_index += 1

    net.validate()
    return net


def random_sequential_network(
    name: str,
    n_inputs: int,
    n_latches: int,
    n_gates: int,
    seed: int = 0,
    max_fanin: int = 3,
    feedback_probability: float = 0.6,
    twin_groups: int = 0,
) -> LogicNetwork:
    """Generate a sequential network with latch feedback.

    ``twin_groups`` > 0 inserts groups of latches with *identical*
    fanins and fanouts — the duplication twins the paper's symmetry
    transformation (Fig. 9) is designed to exploit.
    """
    if n_latches < 1:
        raise ReproError("need at least one latch")
    rng = random.Random(seed)
    net = LogicNetwork(name)
    pis = [f"x{i}" for i in range(n_inputs)]
    for pi in pis:
        net.add_input(pi)

    latch_names = [f"l{i}" for i in range(n_latches)]
    # Latch outputs participate in the combinational pool immediately;
    # data inputs are connected after the logic exists.
    pool: List[str] = list(pis) + latch_names
    placeholder_nodes: Dict[str, None] = {}
    for lname in latch_names:
        # Temporarily add latches fed by a PI; rewired below.
        net.add_latch(lname, pis[0], init_value=0)

    created: List[str] = []
    for g in range(n_gates):
        gate_type = rng.choice((GateType.AND, GateType.OR))
        k = min(rng.randint(2, max_fanin), len(pool))
        fanins: List[str] = []
        while len(fanins) < k:
            cand = rng.choice(pool if rng.random() < 0.7 else pis)
            if cand not in fanins:
                fanins.append(cand)
        gname = f"g{g}"
        net.add_gate(gname, gate_type, fanins)
        sig = gname
        if rng.random() < 0.25:
            iname = f"g{g}_inv"
            net.add_gate(iname, GateType.NOT, [gname])
            sig = iname
        created.append(sig)
        pool.append(sig)

    # Rewire latch data inputs: mostly from gates (creating feedback
    # when those gates read latch outputs).
    for lname in latch_names:
        if created and rng.random() < feedback_probability:
            net.nodes[lname].fanins = [rng.choice(created)]
        else:
            net.nodes[lname].fanins = [rng.choice(pis)]

    # Twin groups: cluster latches behind one driver and one reader so
    # their s-graph fanin/fanout signatures coincide.
    if twin_groups > 0 and created:
        per_group = max(2, n_latches // (twin_groups * 2))
        li = 0
        for tg in range(twin_groups):
            driver = rng.choice(created)
            members = latch_names[li : li + per_group]
            li += per_group
            if len(members) < 2:
                break
            for m in members:
                net.nodes[m].fanins = [driver]
            reader = net.fresh_name(f"twin_read{tg}")
            net.add_gate(reader, GateType.AND, list(members))
            # Feed the reader back into a later latch to keep cycles.
            target = latch_names[(li + tg) % n_latches]
            if target not in members:
                net.nodes[target].fanins = [reader]
            created.append(reader)

    # Primary outputs: a handful of deep gates.
    n_outputs = max(1, min(8, n_gates // 8))
    for i in range(n_outputs):
        net.add_output(f"out{i}", created[-(i % len(created)) - 1])

    net.validate()
    return net


def ladder_network(name: str, n_stages: int, invert_every: int = 2) -> LogicNetwork:
    """A deterministic AND/OR ladder used by unit tests.

    Stage k computes ``s_k = op(s_{k-1}, x_k)`` with alternating
    AND/OR, inserting an inverter every ``invert_every`` stages.
    """
    if n_stages < 1:
        raise ReproError("ladder needs at least one stage")
    net = LogicNetwork(name)
    prev = "x0"
    net.add_input(prev)
    for k in range(1, n_stages + 1):
        xk = f"x{k}"
        net.add_input(xk)
        op = GateType.AND if k % 2 else GateType.OR
        gname = f"s{k}"
        net.add_gate(gname, op, [prev, xk])
        if invert_every and k % invert_every == 0:
            iname = f"s{k}_inv"
            net.add_gate(iname, GateType.NOT, [gname])
            prev = iname
        else:
            prev = gname
    net.add_output("out", prev)
    net.validate()
    return net

"""The worked example circuits from the paper's figures.

* Figures 3/4/5 use the two-output circuit  f = NOT((a+b)+(c·d)),
  g = (a+b)+(c·d): the inverter on f is what phase assignment must
  remove, and the four possible phase assignments span the paper's
  duplication (Fig. 4) and switching (Fig. 5) discussions.
* Figure 10 uses a three-gate circuit with nodes P, Q, R whose BDD
  sizes differ under the three variable orderings.
"""

from __future__ import annotations

from repro.network.netlist import GateType, LogicNetwork


def figure3_network() -> LogicNetwork:
    """The f/g example:  f = NOT((a+b) + (c·d)),  g = (a+b) + (c·d)."""
    net = LogicNetwork("figure3")
    for pi in ("a", "b", "c", "d"):
        net.add_input(pi)
    net.add_gate("n_ab", GateType.OR, ["a", "b"])
    net.add_gate("n_cd", GateType.AND, ["c", "d"])
    net.add_gate("n_x", GateType.OR, ["n_ab", "n_cd"])
    net.add_gate("f_inv", GateType.NOT, ["n_x"])
    net.add_output("f", "f_inv")
    net.add_output("g", "n_x")
    net.validate()
    return net


#: Signal probability the Figure 5 experiment assigns to every input.
FIGURE5_INPUT_PROBABILITY = 0.9


def figure10_network() -> LogicNetwork:
    """Circuit with nodes P, Q, R for the ordering comparison.

    P reads x1..x3, Q reads x3..x4, R reads Q and x5 — the convergent,
    shared-support shape of the paper's sketch.
    """
    net = LogicNetwork("figure10")
    for pi in ("x1", "x2", "x3", "x4", "x5"):
        net.add_input(pi)
    net.add_gate("P", GateType.AND, ["x1", "x2", "x3"])
    net.add_gate("Q", GateType.OR, ["x3", "x4"])
    net.add_gate("R", GateType.AND, ["Q", "x5"])
    for po in ("P", "Q", "R"):
        net.add_output(po)
    net.validate()
    return net


def figure7_network() -> LogicNetwork:
    """A small sequential circuit with a feedback loop (Figure 7 sketch).

    Two latches in a ring with combinational logic between them; cutting
    one latch yields the "ideal partitioning" with fewer block inputs.
    """
    net = LogicNetwork("figure7")
    for pi in ("a", "b", "c"):
        net.add_input(pi)
    net.add_latch("l0", "d0", init_value=0)
    net.add_latch("l1", "d1", init_value=0)
    net.add_gate("g0", GateType.AND, ["a", "l1"])
    net.add_gate("g1", GateType.OR, ["g0", "b"])
    net.add_gate("d0", GateType.AND, ["g1", "c"])
    net.add_gate("g2", GateType.OR, ["l0", "a"])
    net.add_gate("d1", GateType.AND, ["g2", "b"])
    net.add_output("out", "g1")
    net.validate()
    return net

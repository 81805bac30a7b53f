"""Static-CMOS vs domino power comparison.

Section 1 of the paper, citing Weste & Eshraghian: "Due to clock
loading and the precharging every clock cycle, domino gates can consume
up to four times the power of an equivalent static gate."  This module
quantifies that factor under our models, decomposed into its three
causes:

1. **switching asymmetry** — a domino gate pays ``p`` per cycle, a
   static gate ``2p(1-p)`` (only on changes);
2. **clock loading** — every domino cell drives its precharge/evaluate
   clock pins every cycle;
3. **phase-assignment duplication** — the inverter-free requirement
   duplicates logic that a static implementation (inverters allowed)
   keeps single.

The static reference is a zero-delay model too; real static CMOS also
glitches (Property 2.2 says domino does not), which would *raise*
static power — so the reported ratio is an upper-ish bound on domino's
disadvantage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.network.netlist import GateType, LogicNetwork
from repro.phase import PhaseAssignment
from repro.power.activity import static_switching
from repro.power.estimator import DominoPowerModel, PhaseEvaluator
from repro.power.probability import node_probabilities


@dataclass
class StaticVsDominoReport:
    """Power of one circuit under static vs domino implementation."""

    static_power: float
    domino_power: float
    domino_switching: float
    domino_clock: float
    domino_boundary: float
    static_gates: int
    domino_gates: int
    static_andor_gates: int = 0

    @property
    def ratio(self) -> float:
        """Domino power divided by static power (paper: up to ~4x)."""
        if self.static_power == 0:
            return float("inf")
        return self.domino_power / self.static_power

    @property
    def duplication_factor(self) -> float:
        """Domino AND/OR instances per static AND/OR gate — the area
        cost of the inverter-free requirement (inverters excluded from
        the static count because they dissolve in the domino block)."""
        base = self.static_andor_gates or self.static_gates
        if base == 0:
            return 1.0
        return self.domino_gates / base


def compare_static_vs_domino(
    network: LogicNetwork,
    input_probs: Optional[Mapping[str, float]] = None,
    model: Optional[DominoPowerModel] = None,
    assignment: Optional[PhaseAssignment] = None,
    method: str = "auto",
    seed: int = 0,
) -> StaticVsDominoReport:
    """Compare a static-CMOS realisation against a domino realisation.

    The static reference implements the network as-is (inverters are
    fine in static logic) with each gate switching ``2p(1-p) * C``.
    The domino realisation uses the given phase ``assignment`` (default:
    the min-area choice of all-positive) through the usual estimator,
    including clock load and boundary inverters.
    """
    from repro.network.ops import cleanup, to_aoi

    aoi = cleanup(to_aoi(network))
    model = model or DominoPowerModel(clock_cap_per_gate=0.25)

    probs = node_probabilities(aoi, input_probs=input_probs, method=method, seed=seed)
    static_power = 0.0
    static_gates = 0
    static_andor = 0
    for node in aoi.gates:
        p = probs.probabilities.get(node.name)
        if p is None:
            continue
        static_gates += 1
        if node.gate_type in (GateType.AND, GateType.OR):
            static_andor += 1
        cap = model.gate_cap + model.cap_per_fanin * len(node.fanins)
        static_power += static_switching(p) * cap

    evaluator = PhaseEvaluator(
        aoi, input_probs=input_probs, model=model, method=method, seed=seed
    )
    if assignment is None:
        assignment = PhaseAssignment.all_positive(aoi.output_names())
    breakdown = evaluator.breakdown(assignment)

    return StaticVsDominoReport(
        static_power=static_power,
        domino_power=breakdown.total,
        domino_switching=breakdown.domino,
        domino_clock=breakdown.clock,
        domino_boundary=breakdown.input_inverters + breakdown.output_inverters,
        static_gates=static_gates,
        domino_gates=breakdown.n_gates,
        static_andor_gates=static_andor,
    )

"""Timing-aware phase assignment — the paper's proposed future work.

Section 6: "One promising direction for future work is in the area of
integrating the choice of phase assignment with timing optimization."
This module implements that integration.

Phase choice affects delay, not just power: realising a cone in
negative polarity turns OR gates into AND gates (DeMorgan), and domino
ANDs carry a series-transistor stack penalty.  A power-optimal
assignment can therefore push the block past its cycle-time target and
force aggressive (power-hungry) resizing — exactly the tension Table 2
probes.

The optimiser here extends the Section 4.1 loop with a composite
objective

    J(assignment) = power(assignment)
                  + penalty_weight * max(0, delay(assignment) - target)

where ``delay`` comes from a fast polarity-space arrival-time model:
every (node, polarity) slot gets a precomputed arrival time under the
library's stack/load delay parameters, so evaluating a candidate costs
O(outputs) — cheap enough to sit inside the pairwise loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PhaseError
from repro.network.duplication import Polarity, Ref
from repro.network.netlist import GateType
from repro.phase import Phase, PhaseAssignment
from repro.domino.gates import DEFAULT_LIBRARY, DominoCellLibrary
from repro.optimize import CommitRecord, OptimizerBudget
from repro.optimize.strategies import exhaustive_scan, pairwise_loop
from repro.power.estimator import PhaseEvaluator


class PhaseTimingModel:
    """Arrival times over the polarity universe of a network.

    For every (node, polarity) the model precomputes an estimated
    arrival time assuming minimum-size cells: gate delay =
    ``intrinsic + series * (fanin - 1 if AND-type) + load * fanouts``.
    Tree decomposition of wide gates is approximated by ``ceil(log)``
    levels of the library's fanin limit.
    """

    def __init__(
        self,
        evaluator: PhaseEvaluator,
        library: Optional[DominoCellLibrary] = None,
    ):
        self.evaluator = evaluator
        self.library = library or DEFAULT_LIBRARY
        self.space = evaluator.space
        network = evaluator.network
        fanouts = network.fanout_map()

        self._arrival = np.zeros(self.space.n_slots)
        lib = self.library

        def tree_levels(gate_type: GateType, n: int) -> int:
            limit = lib.max_fanin(gate_type)
            levels = 1
            while n > limit:
                n = -(-n // limit)  # ceil division: one reduction layer
                levels += 1
            return levels

        def gate_delay(gate_type: GateType, n_fanins: int, n_fanouts: int) -> float:
            stack = (
                lib.series_delay * max(min(n_fanins, lib.max_fanin(gate_type)) - 1, 0)
                if gate_type is GateType.AND
                else 0.0
            )
            base = lib.intrinsic_delay + stack + lib.load_delay * lib.input_cap * max(
                n_fanouts, 1
            )
            return base * tree_levels(gate_type, max(n_fanins, 1))

        def ref_arrival(ref: Ref) -> float:
            if ref.kind == "const":
                return 0.0
            if ref.kind in ("input", "latch"):
                # Negative-polarity sources pass through a static inverter.
                return lib.inverter_delay if ref.polarity is Polarity.NEG else 0.0
            return self._arrival[self.space.gate_index[ref.key]]

        # The space stores its slots in dependency order.
        for key, gate in self.space.gates.items():
            worst_in = max((ref_arrival(r) for r in gate.fanins), default=0.0)
            self._arrival[self.space.gate_index[key]] = worst_in + gate_delay(
                gate.gate_type, len(gate.fanins), len(fanouts[gate.name])
            )

        self._driver_arrival: Dict[Tuple[str, Phase], float] = {}
        for po, driver in network.outputs:
            for phase in (Phase.POSITIVE, Phase.NEGATIVE):
                pol = Polarity.POS if phase is Phase.POSITIVE else Polarity.NEG
                ref = self.space.resolve(driver, pol)
                arrival = ref_arrival(ref)
                if phase is Phase.NEGATIVE:
                    arrival += lib.inverter_delay
                self._driver_arrival[(po, phase)] = arrival

    def output_arrival(self, po: str, phase: Phase) -> float:
        return self._driver_arrival[(po, phase)]

    def critical_delay(self, assignment: PhaseAssignment) -> float:
        """Estimated critical delay of the block under an assignment."""
        return max(
            (self.output_arrival(po, assignment[po]) for po in self.evaluator.outputs),
            default=0.0,
        )


@dataclass
class TimingAwareResult:
    """Outcome of the timing-aware optimisation."""

    assignment: PhaseAssignment
    power: float
    delay: float
    objective: float
    target_delay: float
    initial_power: float
    initial_delay: float
    meets_target: bool
    method: str
    evaluations: int
    history: List[CommitRecord]

    @property
    def savings_percent(self) -> float:
        if self.initial_power == 0:
            return 0.0
        return 100.0 * (self.initial_power - self.power) / self.initial_power


def minimize_power_timing_aware(
    evaluator: PhaseEvaluator,
    target_delay: Optional[float] = None,
    penalty_weight: float = 10.0,
    library: Optional[DominoCellLibrary] = None,
    initial: Optional[PhaseAssignment] = None,
    method: str = "auto",
    exhaustive_limit: int = 10,
    slack_fraction: float = 1.0,
) -> TimingAwareResult:
    """Minimise power subject to a (soft) delay target.

    With no explicit ``target_delay`` the target defaults to
    ``slack_fraction`` times the all-positive assignment's estimated
    delay — i.e. "do not get slower than the natural realisation".
    The search is the shared exhaustive scan or Section 4.1 loop of
    :mod:`repro.optimize.strategies`, driven by the composite objective.
    """
    timing = PhaseTimingModel(evaluator, library)
    outputs = evaluator.outputs
    start = initial or PhaseAssignment.all_positive(outputs)
    start_delay = timing.critical_delay(start)
    if target_delay is None:
        target_delay = start_delay * slack_fraction
    if target_delay <= 0:
        raise PhaseError(f"delay target must be positive, got {target_delay}")

    def measure(assignment: PhaseAssignment) -> Tuple[float, float]:
        power = evaluator.power(assignment)
        delay = timing.critical_delay(assignment)
        return power + penalty_weight * max(0.0, delay - target_delay), power

    meter = OptimizerBudget().start()
    start_score = measure(start)
    meter.spend()

    if method == "auto":
        method = "exhaustive" if len(outputs) <= exhaustive_limit else "pairwise"

    history: List[CommitRecord] = []
    if method == "exhaustive":
        final, (final_j, final_power) = exhaustive_scan(
            outputs, measure, meter, (start, start_score)
        )
    elif method == "pairwise":
        final, (final_j, final_power), history = pairwise_loop(
            evaluator, (start, start_score), measure, meter
        )
    else:
        raise PhaseError(f"unknown optimisation method {method!r}")
    final_delay = timing.critical_delay(final)

    return TimingAwareResult(
        assignment=final,
        power=final_power,
        delay=final_delay,
        objective=final_j,
        target_delay=target_delay,
        initial_power=start_score[1],
        initial_delay=start_delay,
        meets_target=final_delay <= target_delay + 1e-9,
        method=method,
        evaluations=meter.evaluations,
        history=history,
    )

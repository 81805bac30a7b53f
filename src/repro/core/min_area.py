"""Minimum-area phase assignment — the paper's baseline ("MA" columns).

Reference [15] (Puri et al., ICCAD '96) selects output phases to
minimise the logic duplication of the inverter-free transform.  The
paper runs it to optimality, which is feasible because the benchmark
circuits have limited shared-cone structure (and frg1 has only 3
outputs).  We provide:

* exhaustive search (optimal) up to a configurable output count;
* deterministic steepest-descent hill climbing with restarts beyond it
  (single-output flips plus optional pair flips), which matches the
  behaviour of duplication-driven heuristics in practice.

The objective is the cell-count proxy of
:meth:`repro.power.estimator.PhaseEvaluator.area`: domino gates after
duplication plus static boundary inverters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.optimize import OptimizerBudget
from repro.optimize.strategies import exhaustive_scan
from repro.phase import PhaseAssignment
from repro.power.estimator import PhaseEvaluator


@dataclass
class AreaResult:
    """Outcome of a min-area search."""

    assignment: PhaseAssignment
    area: int
    method: str
    evaluations: int


def minimize_area(
    evaluator: PhaseEvaluator,
    exhaustive_limit: int = 12,
    restarts: int = 4,
    pair_moves: bool = True,
    seed: int = 0,
) -> AreaResult:
    """Find a (near-)minimum-area phase assignment.

    Exhaustive (provably optimal) when the circuit has at most
    ``exhaustive_limit`` outputs, hill climbing with ``restarts``
    otherwise.
    """
    outputs = evaluator.outputs
    if len(outputs) > exhaustive_limit:
        return _hill_climb(
            evaluator, restarts=restarts, pair_moves=pair_moves, seed=seed
        )
    meter = OptimizerBudget().start()
    assignment, (area,) = exhaustive_scan(
        outputs, lambda candidate: (evaluator.area(candidate),), meter
    )
    return AreaResult(
        assignment=assignment,
        area=area,
        method="exhaustive",
        evaluations=meter.evaluations,
    )


def _hill_climb(
    evaluator: PhaseEvaluator,
    restarts: int,
    pair_moves: bool,
    seed: int,
) -> AreaResult:
    outputs = evaluator.outputs
    n_eval = 0
    global_best: Optional[Tuple[int, PhaseAssignment]] = None

    starts: List[PhaseAssignment] = [PhaseAssignment.all_positive(outputs)]
    for r in range(max(restarts - 1, 0)):
        starts.append(PhaseAssignment.random(outputs, seed=seed + r))

    for start in starts:
        current = start
        current_area = evaluator.area(current)
        n_eval += 1
        improved = True
        while improved:
            improved = False
            # Single-output flips, first-improvement in deterministic order.
            for po in outputs:
                candidate = current.flipped(po)
                area = evaluator.area(candidate)
                n_eval += 1
                if area < current_area:
                    current, current_area = candidate, area
                    improved = True
            if improved or not pair_moves:
                continue
            # Pair flips break simple local minima created by cone overlap.
            for a in range(len(outputs)):
                for b in range(a + 1, len(outputs)):
                    candidate = current.flipped(outputs[a], outputs[b])
                    area = evaluator.area(candidate)
                    n_eval += 1
                    if area < current_area:
                        current, current_area = candidate, area
                        improved = True
                        break
                if improved:
                    break
        if global_best is None or current_area < global_best[0]:
            global_best = (current_area, current)
    assert global_best is not None
    return AreaResult(
        assignment=global_best[1],
        area=global_best[0],
        method="hill-climb",
        evaluations=n_eval,
    )

"""Built-in optimizer strategies.

``pairwise`` is the paper's Section 4.1 heuristic and the flow default;
``exhaustive`` enumerates every assignment; ``groupwise`` extends the
pairwise cost to output groups (Section 4.1's "greater degree of
interaction"); ``greedy-flip``, ``anneal`` and ``random`` are
registry-native baselines that explore the same search space without
the paper's cost model.  All honour the shared
:class:`~repro.optimize.base.OptimizerBudget` and are deterministic for
a fixed ``(evaluator, initial, budget, seed)``.

The ``pairwise`` loop follows the paper's seven steps exactly:

1. Generate an arbitrary initial phase assignment.
2. For each pair of primary outputs still in the candidate set, compute
   the cost K of the four retain/invert combinations.  K depends only on
   the current assignment, so it is computed, and the candidates ranked
   by it, only after a commit (:class:`~repro.core.cost.PairWalk`).
3. Choose the pair + combination of minimum cost: the first entry of
   that ranking whose pair is still a candidate.
4. Synthesise the circuit with that assignment (implicitly — the
   evaluator's polarity masks stand in for re-synthesis).
5. Measure the power (Section 4.2 estimator).
6. Commit the combination iff power decreased; either way remove the
   pair from the candidate set.
7. Repeat from step 2 while candidate pairs remain.

With the cost extended to all outputs the heuristic degenerates into a
"greedily ordered exhaustive search"; the paper effectively uses that
on frg1 (3 outputs → 8 assignments), which is why ``pairwise`` carries
an ``exhaustive_limit`` parameter: at or below the limit it runs the
full enumeration.

Steps 2-7 are :func:`pairwise_loop` and the full enumeration is
:func:`exhaustive_scan`, each written once and independent of the
objective: they also drive the Section 6 timing-aware search
(:mod:`repro.core.timing_aware`) and the exhaustive minimum-area
baseline (:mod:`repro.core.min_area`).
"""

from __future__ import annotations

import itertools
import math
import random as _random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.phase import PhaseAssignment, enumerate_assignments
from repro.optimize.base import (
    BudgetMeter,
    CommitRecord,
    OptimizationResult,
    OptimizerBudget,
    OptimizerStrategy,
    register_strategy,
)

#: Fallback for ``pairwise.exhaustive_limit`` when neither the param
#: nor a FlowConfig supplies one (the historical ``run_flow`` default).
DEFAULT_EXHAUSTIVE_LIMIT = 10


def _meter(budget: Optional[OptimizerBudget]) -> BudgetMeter:
    return (budget or OptimizerBudget()).start()


def exhaustive_scan(
    outputs: Sequence[str],
    score: Callable[[PhaseAssignment], tuple],
    meter: BudgetMeter,
    start: Optional[Tuple[PhaseAssignment, tuple]] = None,
) -> Tuple[PhaseAssignment, tuple]:
    """Full enumeration of ``outputs``' assignments, independent of the
    objective: the ``(assignment, scored)`` pair of least score.

    ``score(assignment)`` returns a tuple whose first item is minimised;
    the rest rides along with it (the power behind a timing objective).
    ``start`` is an already scored pair to beat; on ties the earlier
    pair wins.  Each assignment spends one evaluation of ``meter``, and
    an exhausted meter truncates the scan in enumeration order.
    """
    best = start
    for assignment in enumerate_assignments(outputs):
        if meter.exhausted:
            break
        scored = score(assignment)
        meter.spend()
        if best is None or scored[0] < best[1][0]:
            best = (assignment, scored)
    assert best is not None
    return best


def pairwise_loop(
    evaluator,
    start: Tuple[PhaseAssignment, Tuple[float, float]],
    measure: Callable[[PhaseAssignment], Tuple[float, float]],
    meter: BudgetMeter,
    max_pairs: Optional[int] = None,
) -> Tuple[PhaseAssignment, Tuple[float, float], List[CommitRecord]]:
    """The Section 4.1 loop (steps 2-7 of the module docstring),
    independent of the objective.

    ``measure(assignment)`` returns ``(score, power)``: the loop commits
    a candidate iff ``meter`` finds its score an improvement, and
    records its power in the history.  ``start`` is the already
    measured ``(assignment, (score, power))`` to improve on; the final
    pair comes back with the commit history.

    A commit ranks the candidate pairs by K once; each step is then one
    step of that :class:`~repro.core.cost.PairWalk` past the pairs
    already tried, through :func:`~repro.core.cost.best_pair_and_combo`.
    It picks what a flat ``argmin`` over the whole ``(4, P, P)`` cost
    stack would: least cost, then earliest combination, then lowest
    row-major pair.  The loop makes one step per candidate pair unless
    ``meter`` runs out first.

    Every step measures its candidate, as the paper's loop does, although
    most candidates were measured before: the ``(+, +)`` combination is
    the current assignment, and different pairs propose the same single
    flip (on 56-output circuits only a few hundred of some 1,540 steps
    are distinct).  Their power comes from the memo of
    :meth:`~repro.power.estimator.PhaseEvaluator.breakdown`, so a
    repeated candidate costs a dict lookup, not a query.
    """
    from repro.core import cost  # here, not at the top: repro.core imports us

    outputs = evaluator.outputs
    n = len(outputs)
    data = cost.CostModelData.from_network(evaluator.network)
    # Align index order with evaluator outputs.
    assert tuple(data.outputs) == outputs

    current, (current_score, current_power) = start
    # A_k per output under the current assignment (flips with the phase).
    avg = np.array(
        [evaluator.average_cone_probability(current, po) for po in outputs]
    )

    remaining = np.triu(np.ones((n, n), dtype=bool), k=1)
    if max_pairs is not None and remaining.sum() > max_pairs:
        # Keep the pairs with the largest overlap-weighted cones — the
        # ones whose phases interact most; a stable sort breaks ties
        # toward the lowest row-major pair on every host.
        scores = data.overlap * (data.sizes[:, None] + data.sizes[None, :])
        flat = np.where(remaining, scores, -np.inf).ravel()
        keep = np.argsort(-flat, kind="stable")[:max_pairs]
        mask = np.zeros(n * n, dtype=bool)
        mask[keep] = True
        remaining &= mask.reshape(n, n)

    # K changes only when a commit flips some A_k: rank the pairs once
    # per commit and walk that order; every step retires its pair.
    walk = cost.PairWalk(data, avg, remaining)
    invert = cost.Move.INVERT
    history: List[CommitRecord] = []
    for _step in range(int(remaining.sum())):
        if meter.exhausted:
            break
        i, j, combo, step_cost = cost.best_pair_and_combo(data, avg, walk.remaining, walk)
        inverted = [k for k, move in zip((i, j), combo) if move is invert]
        candidate = (
            current.flipped(*(outputs[k] for k in inverted)) if inverted else current
        )
        candidate_score, candidate_power = measure(candidate)
        meter.spend()

        committed = meter.improves(candidate_score, current_score) and bool(inverted)
        if committed:
            current = candidate
            current_score, current_power = candidate_score, candidate_power
            for k in inverted:
                avg[k] = 1.0 - avg[k]
            walk.rank(avg)
        history.append(
            CommitRecord(
                pair=(outputs[i], outputs[j]),
                moves=combo,
                cost=step_cost,
                candidate_power=candidate_power,
                committed=committed,
            )
        )
    return current, (current_score, current_power), history


def _power_measure(evaluator) -> Callable[[PhaseAssignment], Tuple[float, float]]:
    """``measure`` for the power searches: the score is the power."""

    def measure(assignment: PhaseAssignment) -> Tuple[float, float]:
        power = evaluator.power(assignment)
        return power, power

    return measure


def _measured_start(evaluator, initial, measure, meter):
    start = initial or PhaseAssignment.all_positive(evaluator.outputs)
    scored = (start, measure(start))
    meter.spend()
    return scored


def _exhaustive_search(
    evaluator, initial: Optional[PhaseAssignment], meter: BudgetMeter, strategy: str
) -> OptimizationResult:
    measure = _power_measure(evaluator)
    start = _measured_start(evaluator, initial, measure, meter)
    best, (_, power) = exhaustive_scan(evaluator.outputs, measure, meter, start)
    return OptimizationResult(
        assignment=best,
        power=power,
        initial_power=start[1][1],
        method="exhaustive",
        evaluations=meter.evaluations,
        strategy=strategy,
    )


@register_strategy("exhaustive")
@dataclass(frozen=True)
class ExhaustiveStrategy(OptimizerStrategy):
    """Enumerate all ``2^n`` assignments (careful: exponential).

    Provably optimal when it completes; an
    :class:`~repro.optimize.base.OptimizerBudget` truncates the
    enumeration (in enumeration order) on circuits too large for it.
    """

    def optimize(self, evaluator, *, initial=None, budget=None, seed=0):
        return _exhaustive_search(evaluator, initial, _meter(budget), self.name)


@register_strategy("pairwise")
@dataclass(frozen=True)
class PairwiseStrategy(OptimizerStrategy):
    """The paper's Section 4.1 pairwise heuristic (the flow default).

    Parameters
    ----------
    exhaustive_limit:
        At or below this many outputs the heuristic degenerates into
        the full enumeration, exactly as the paper uses it.  ``0``
        forces the pairwise loop always; ``None`` (default) takes
        ``FlowConfig.power_exhaustive_limit`` when driven by the flow,
        else 10.
    max_pairs:
        Cap on candidate pairs for very large circuits (keep the
        highest-overlap pairs); ``None`` (default) keeps them all, or
        takes ``FlowConfig.max_pairs`` when driven by the flow.  Pairs
        rank by overlap-weighted cone size, highest first; equal scores
        rank by row-major pair index, lowest first, so the kept set
        does not depend on the host's sort.
    """

    exhaustive_limit: Optional[int] = None
    max_pairs: Optional[int] = None

    config_params = {
        "exhaustive_limit": "power_exhaustive_limit",
        "max_pairs": "max_pairs",
    }

    def __post_init__(self) -> None:
        if self.exhaustive_limit is not None and (
            not isinstance(self.exhaustive_limit, int)
            or isinstance(self.exhaustive_limit, bool)
            or self.exhaustive_limit < 0
        ):
            raise ConfigError(
                f"exhaustive_limit must be an int >= 0 or None, "
                f"got {self.exhaustive_limit!r}"
            )
        if self.max_pairs is not None and (
            not isinstance(self.max_pairs, int)
            or isinstance(self.max_pairs, bool)
            or self.max_pairs < 0
        ):
            raise ConfigError(
                f"max_pairs must be an int >= 0 or None, got {self.max_pairs!r}"
            )

    def optimize(self, evaluator, *, initial=None, budget=None, seed=0):
        meter = _meter(budget)
        limit = (
            self.exhaustive_limit
            if self.exhaustive_limit is not None
            else DEFAULT_EXHAUSTIVE_LIMIT
        )
        outputs = evaluator.outputs
        if len(outputs) <= limit:
            return _exhaustive_search(evaluator, initial, meter, self.name)
        measure = _power_measure(evaluator)
        start = _measured_start(evaluator, initial, measure, meter)
        history: List[CommitRecord] = []
        if len(outputs) == 1:
            # no pair to rank: try the lone output's flip
            final, (_, power) = start
            if not meter.exhausted:
                flipped = final.flipped(outputs[0])
                _, flipped_power = measure(flipped)
                meter.spend()
                if meter.improves(flipped_power, power):
                    final, power = flipped, flipped_power
        else:
            final, (_, power), history = pairwise_loop(
                evaluator, start, measure, meter, max_pairs=self.max_pairs
            )
        return OptimizationResult(
            assignment=final,
            power=power,
            initial_power=start[1][1],
            method="pairwise",
            evaluations=meter.evaluations,
            history=history,
            strategy=self.name,
        )


@register_strategy("groupwise")
@dataclass(frozen=True)
class GroupwiseStrategy(OptimizerStrategy):
    """The Section 4.1 loop with the cost function extended to groups.

    Each primary output anchors one candidate group consisting of the
    anchor and its ``group_size - 1`` highest-overlap partners.  Every
    iteration scores all remaining groups under all ``2^k`` move
    combinations with :func:`repro.core.cost.group_cost`, applies the
    best, measures power, and commits iff it dropped.
    """

    group_size: int = 3

    def __post_init__(self) -> None:
        if (
            not isinstance(self.group_size, int)
            or isinstance(self.group_size, bool)
            or self.group_size < 2
        ):
            raise ConfigError(
                f"group_size must be an int >= 2, got {self.group_size!r}"
            )

    def optimize(self, evaluator, *, initial=None, budget=None, seed=0):
        from repro.core.cost import CostModelData, Move, group_cost

        meter = _meter(budget)
        outputs = evaluator.outputs
        n = len(outputs)
        data = CostModelData.from_network(evaluator.network)
        assert tuple(data.outputs) == outputs

        current = initial or PhaseAssignment.all_positive(outputs)
        current_power = evaluator.power(current)
        meter.spend()
        initial_power = current_power
        avg = np.array(
            [evaluator.average_cone_probability(current, po) for po in outputs]
        )

        # Build anchored groups by overlap affinity.
        k = min(self.group_size, n)
        groups: List[Tuple[int, ...]] = []
        for anchor in range(n):
            partners = np.argsort(data.overlap[anchor])[::-1]
            members = [anchor]
            for p in partners:
                if int(p) != anchor and len(members) < k:
                    members.append(int(p))
            groups.append(tuple(members))

        move_combos = list(itertools.product((Move.RETAIN, Move.INVERT), repeat=k))
        history: List[CommitRecord] = []
        remaining = set(range(len(groups)))
        while remaining and not meter.exhausted:
            best: Optional[Tuple[float, int, Tuple]] = None
            for gi in remaining:
                members = groups[gi]
                sizes = [data.sizes[m] for m in members]
                overlaps = data.overlap[np.ix_(members, members)]
                avgs = [avg[m] for m in members]
                for combo in move_combos:
                    cost = group_cost(sizes, overlaps, avgs, combo)
                    if best is None or cost < best[0]:
                        best = (cost, gi, combo)
            assert best is not None
            cost, gi, combo = best
            members = groups[gi]
            flips = [outputs[m] for m, mv in zip(members, combo) if mv is Move.INVERT]
            candidate = current.flipped(*flips) if flips else current
            candidate_power = evaluator.power(candidate)
            meter.spend()
            committed = meter.improves(candidate_power, current_power) and bool(flips)
            if committed:
                current = candidate
                current_power = candidate_power
                for m, mv in zip(members, combo):
                    if mv is Move.INVERT:
                        avg[m] = 1.0 - avg[m]
            history.append(
                CommitRecord(
                    pair=(outputs[members[0]], outputs[members[-1]]),
                    moves=(combo[0], combo[-1]),
                    cost=cost,
                    candidate_power=candidate_power,
                    committed=committed,
                )
            )
            remaining.discard(gi)

        return OptimizationResult(
            assignment=current,
            power=current_power,
            initial_power=initial_power,
            method=f"groupwise-{self.group_size}",
            evaluations=meter.evaluations,
            history=history,
            strategy=self.name,
        )


@register_strategy("greedy-flip")
@dataclass(frozen=True)
class GreedyFlipStrategy(OptimizerStrategy):
    """Steepest-descent single-output flips with random restarts.

    From each start, every single-output flip is scored and the best
    (tolerance-significant) improvement is taken until a local minimum;
    ``restarts - 1`` further descents start from deterministic random
    assignments (seeded ``seed + r``).  The global best across starts
    wins.  A model-free baseline for the paper's cost-driven pair
    ordering — same moves, no cost model.
    """

    restarts: int = 4

    def __post_init__(self) -> None:
        if (
            not isinstance(self.restarts, int)
            or isinstance(self.restarts, bool)
            or self.restarts < 1
        ):
            raise ConfigError(f"restarts must be an int >= 1, got {self.restarts!r}")

    def optimize(self, evaluator, *, initial=None, budget=None, seed=0):
        meter = _meter(budget)
        outputs = evaluator.outputs
        start = initial or PhaseAssignment.all_positive(outputs)
        initial_power = evaluator.power(start)
        meter.spend()

        starts: List[PhaseAssignment] = [start]
        for r in range(self.restarts - 1):
            starts.append(PhaseAssignment.random(outputs, seed=seed + r))

        best, best_power = start, initial_power
        for s_index, current in enumerate(starts):
            if s_index == 0:
                current_power = initial_power
            else:
                if meter.exhausted:
                    break
                current_power = evaluator.power(current)
                meter.spend()
            improved = True
            while improved and outputs and not meter.exhausted:
                improved = False
                step_best: Optional[Tuple[float, PhaseAssignment]] = None
                for po in outputs:
                    if meter.exhausted:
                        break
                    candidate = current.flipped(po)
                    power = evaluator.power(candidate)
                    meter.spend()
                    if step_best is None or power < step_best[0]:
                        step_best = (power, candidate)
                if step_best is not None and meter.improves(
                    step_best[0], current_power
                ):
                    current_power, current = step_best
                    improved = True
            if current_power < best_power:
                best, best_power = current, current_power

        return OptimizationResult(
            assignment=best,
            power=best_power,
            initial_power=initial_power,
            method="greedy-flip",
            evaluations=meter.evaluations,
            strategy=self.name,
        )


@register_strategy("anneal")
@dataclass(frozen=True)
class AnnealStrategy(OptimizerStrategy):
    """Simulated annealing over single-output flips.

    A geometric cooling schedule (``temp = initial_temp * initial_power
    * cooling**step``) accepts worsening flips with probability
    ``exp(-delta / temp)`` (improving flips always), escaping the local
    minima that trap pure descent.  Deterministic for a fixed seed; the
    best assignment seen anywhere along the walk is returned.

    The budget's ``tolerance`` acts as a stall detector here (an accept
    threshold cannot gate Metropolis, which takes every improvement):
    with ``tolerance > 0`` the walk stops once no tolerance-significant
    new best has appeared for ``max(16, 2 * n_outputs)`` steps.
    """

    steps: int = 256
    initial_temp: float = 0.1
    cooling: float = 0.97

    def __post_init__(self) -> None:
        if (
            not isinstance(self.steps, int)
            or isinstance(self.steps, bool)
            or self.steps < 1
        ):
            raise ConfigError(f"steps must be an int >= 1, got {self.steps!r}")
        if (
            not isinstance(self.initial_temp, (int, float))
            or isinstance(self.initial_temp, bool)
            or not 0 < self.initial_temp < math.inf
        ):
            raise ConfigError(
                "initial_temp must be a finite positive number, "
                f"got {self.initial_temp!r}"
            )
        if (
            not isinstance(self.cooling, (int, float))
            or isinstance(self.cooling, bool)
            or not 0.0 < self.cooling < 1.0
        ):
            raise ConfigError(
                f"cooling must be in (0, 1), got {self.cooling!r}"
            )

    def optimize(self, evaluator, *, initial=None, budget=None, seed=0):
        meter = _meter(budget)
        outputs = evaluator.outputs
        start = initial or PhaseAssignment.all_positive(outputs)
        initial_power = evaluator.power(start)
        meter.spend()
        current, current_power = start, initial_power
        best, best_power = start, initial_power
        if not outputs:
            return OptimizationResult(
                best, best_power, initial_power, "anneal",
                meter.evaluations, strategy=self.name,
            )

        rng = _random.Random(seed)
        scale = self.initial_temp * max(initial_power, 1e-12)
        tolerance = meter.budget.tolerance
        patience = max(16, 2 * len(outputs))
        stall = 0
        for step in range(self.steps):
            if meter.exhausted:
                break
            if tolerance > 0.0 and stall >= patience:
                break  # no significant new best in a while: converged
            temp = scale * (self.cooling ** step)
            candidate = current.flipped(rng.choice(outputs))
            candidate_power = evaluator.power(candidate)
            meter.spend()
            delta = candidate_power - current_power
            if delta < 0.0:
                accept = True
            elif temp > 0.0:
                accept = rng.random() < math.exp(-delta / temp)
            else:
                accept = False
            stall += 1
            if accept:
                current, current_power = candidate, candidate_power
                if current_power < best_power:
                    if meter.improves(current_power, best_power):
                        stall = 0
                    best, best_power = current, current_power

        return OptimizationResult(
            assignment=best,
            power=best_power,
            initial_power=initial_power,
            method="anneal",
            evaluations=meter.evaluations,
            strategy=self.name,
        )


@register_strategy("random")
@dataclass(frozen=True)
class RandomStrategy(OptimizerStrategy):
    """Uniform random-assignment sampling (the ablation baseline).

    Draws ``n_samples`` deterministic assignments (seeded ``seed + k``)
    and keeps the best.
    """

    n_samples: int = 64

    def __post_init__(self) -> None:
        if (
            not isinstance(self.n_samples, int)
            or isinstance(self.n_samples, bool)
            or self.n_samples < 1
        ):
            raise ConfigError(
                f"n_samples must be an int >= 1, got {self.n_samples!r}"
            )

    def optimize(self, evaluator, *, initial=None, budget=None, seed=0):
        meter = _meter(budget)
        outputs = evaluator.outputs
        start = initial or PhaseAssignment.all_positive(outputs)
        best = start
        best_power = evaluator.power(start)
        meter.spend()
        initial_power = best_power
        for k in range(self.n_samples):
            if meter.exhausted:
                break
            cand = PhaseAssignment.random(outputs, seed=seed + k)
            p = evaluator.power(cand)
            meter.spend()
            if meter.improves(p, best_power):
                best, best_power = cand, p
        return OptimizationResult(
            assignment=best,
            power=best_power,
            initial_power=initial_power,
            method="random",
            evaluations=meter.evaluations,
            strategy=self.name,
        )

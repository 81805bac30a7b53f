"""Unit tests for the Section 4.1 pairwise cost function."""

from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from helpers import (
    large_pool_network,
    random_mixed_network,
    ranked_pairs,
    reference_best_pair,
    reference_cost_stack,
    reference_pairwise_loop,
    small_pool_blif,
)
from repro.bench.figures import figure7_network
from repro.bench.generators import (
    GeneratorConfig,
    random_control_network,
    random_sequential_network,
)
from repro.bench.mcnc import TABLE1_SUITE
from repro.core import timing_aware
from repro.core.cost import (
    COMBOS,
    CostModelData,
    Move,
    PairWalk,
    all_pair_costs,
    best_pair_and_combo,
    cost_matrices,
    pair_cost,
)
from repro.errors import PhaseError
from repro.network.blif import parse_blif
from repro.network.netlist import LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.network.topo import cone_overlap, output_cones
from repro.optimize import OptimizerBudget, strategies
from repro.optimize.strategies import PairwiseStrategy
from repro.power.estimator import PhaseEvaluator


class TestScalarCost:
    def test_retain_retain_formula(self):
        # K(i+, j+) = |Di| Ai + |Dj| Aj + 0.5 O (Ai + Aj)
        k = pair_cost(10, 20, 0.25, 0.8, 0.3, Move.RETAIN, Move.RETAIN)
        assert k == pytest.approx(10 * 0.8 + 20 * 0.3 + 0.5 * 0.25 * 1.1)

    def test_invert_invert_formula(self):
        k = pair_cost(10, 20, 0.25, 0.8, 0.3, Move.INVERT, Move.INVERT)
        assert k == pytest.approx(10 * 0.2 + 20 * 0.7 + 0.5 * 0.25 * (0.2 + 0.7))

    def test_mixed_combos(self):
        k_pm = pair_cost(10, 20, 0.0, 0.8, 0.3, Move.RETAIN, Move.INVERT)
        k_mp = pair_cost(10, 20, 0.0, 0.8, 0.3, Move.INVERT, Move.RETAIN)
        assert k_pm == pytest.approx(10 * 0.8 + 20 * 0.7)
        assert k_mp == pytest.approx(10 * 0.2 + 20 * 0.3)

    def test_all_four_combos_present(self):
        costs = all_pair_costs(5, 5, 0.1, 0.5, 0.5)
        assert set(costs) == set(COMBOS)

    def test_symmetric_probabilities_make_combos_equal(self):
        costs = all_pair_costs(5, 5, 0.1, 0.5, 0.5)
        values = list(costs.values())
        assert all(v == pytest.approx(values[0]) for v in values)

    def test_high_probability_prefers_invert(self):
        costs = all_pair_costs(10, 10, 0.2, 0.9, 0.9)
        best = min(costs, key=costs.get)
        assert best == (Move.INVERT, Move.INVERT)


class TestCostModelData:
    def test_from_network(self, simple_and_or):
        data = CostModelData.from_network(simple_and_or)
        assert data.outputs == ["x", "y"]
        assert data.sizes.tolist() == [2.0, 2.0]
        assert data.overlap[0, 1] == pytest.approx(0.25)
        assert data.overlap[1, 0] == pytest.approx(0.25)
        assert data.overlap[0, 0] == 0.0


def reference_cost_arrays(network: LogicNetwork) -> Tuple[np.ndarray, np.ndarray]:
    """``sizes`` and ``overlap`` from the set definition: each output's
    :func:`output_cones` set and :func:`cone_overlap` of every pair."""
    by_output = output_cones(network)
    cones = [by_output[po] for po in network.output_names()]
    n = len(cones)
    overlap = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            overlap[a, b] = overlap[b, a] = cone_overlap(cones[a], cones[b])
    return np.array([len(cone) for cone in cones], dtype=float), overlap


def _sequential() -> List[LogicNetwork]:
    nets = [figure7_network()]
    for seed in range(6):
        net = random_sequential_network(f"q{seed}", 8, 4, 40, seed=seed, twin_groups=seed % 2)
        nets += [net, cleanup(to_aoi(net))]
    return nets + [random_mixed_network(seed, n_latches=seed % 3) for seed in range(6)]


#: family -> the networks it checks.
COST_FAMILIES: Dict[str, Callable[[], List[LogicNetwork]]] = {
    "small_pool": lambda: [
        cleanup(to_aoi(parse_blif(small_pool_blif(index)))) for index in range(40)
    ],
    "large56": lambda: [large_pool_network(seed) for seed in (1, 3, 4)],
    "suite": lambda: [
        net for spec in TABLE1_SUITE for net in (spec.build(), cleanup(to_aoi(spec.build())))
    ],
    "sequential": _sequential,
}


@pytest.mark.parametrize("family", sorted(COST_FAMILIES))
def test_cone_bitsets_equal_the_set_definition(family):
    """``from_network``'s one bitset pass gives the bytes the cone sets
    give; latch outputs end a cone as inputs do."""
    for net in COST_FAMILIES[family]():
        data = CostModelData.from_network(net)
        sizes, overlap = reference_cost_arrays(net)
        assert data.outputs == net.output_names()
        assert data.sizes.tobytes() == sizes.tobytes(), net.name
        assert data.overlap.tobytes() == overlap.tobytes(), net.name


class TestVectorisedCost:
    def test_matrices_match_scalar(self, medium_random):
        data = CostModelData.from_network(medium_random)
        rng = np.random.default_rng(0)
        avg = rng.random(len(data.outputs))
        matrices = cost_matrices(data, avg)
        for (mi, mj), k in matrices.items():
            for i in range(len(data.outputs)):
                for j in range(len(data.outputs)):
                    if i == j:
                        assert np.isinf(k[i, j])
                        continue
                    expected = pair_cost(
                        data.sizes[i],
                        data.sizes[j],
                        data.overlap[i, j],
                        avg[i],
                        avg[j],
                        mi,
                        mj,
                    )
                    assert k[i, j] == pytest.approx(expected)

    def test_best_pair_respects_mask(self, medium_random):
        data = CostModelData.from_network(medium_random)
        n = len(data.outputs)
        avg = np.full(n, 0.9)
        remaining = np.zeros((n, n), dtype=bool)
        remaining[0, 1] = True
        i, j, combo, cost = best_pair_and_combo(data, avg, remaining)
        assert (i, j) == (0, 1)
        assert np.isfinite(cost)

    def test_empty_candidate_set_raises(self, medium_random):
        data = CostModelData.from_network(medium_random)
        n = len(data.outputs)
        with pytest.raises(PhaseError):
            best_pair_and_combo(data, np.full(n, 0.5), np.zeros((n, n), dtype=bool))

    def test_best_pair_finds_global_minimum(self, medium_random):
        data = CostModelData.from_network(medium_random)
        n = len(data.outputs)
        rng = np.random.default_rng(3)
        avg = rng.random(n)
        remaining = np.triu(np.ones((n, n), dtype=bool), k=1)
        i, j, combo, cost = best_pair_and_combo(data, avg, remaining)
        # Verify against brute force over every pair and combo.
        best = min(
            pair_cost(
                data.sizes[a], data.sizes[b], data.overlap[a, b], avg[a], avg[b], mi, mj
            )
            for a in range(n)
            for b in range(a + 1, n)
            for mi, mj in COMBOS
        )
        assert cost == pytest.approx(best)


def _synthetic(n, sizes, overlap):
    return CostModelData(
        outputs=[f"o{k}" for k in range(n)], sizes=np.asarray(sizes, float), overlap=overlap
    )


def _pruned(data, max_pairs):
    """The candidate mask the loop keeps under ``max_pairs``."""
    n = len(data.outputs)
    remaining = np.zeros((n, n), dtype=bool)
    for _score, index in ranked_pairs(data)[:max_pairs]:
        remaining[divmod(index, n)] = True
    return remaining


def _cases():
    """(data, avg, remaining) inputs, many of them tie-heavy.  The 40-output
    ones hold 3,120 finite entries, so a walk ranks them in several chunks
    and ties straddle the chunk bounds."""
    rng = np.random.default_rng(5)
    for n in (9, 40):
        full = np.triu(np.ones((n, n), dtype=bool), k=1)
        flat = _synthetic(n, np.full(n, 4.0), np.zeros((n, n)))
        overlap = np.triu(rng.choice([0.0, 0.0, 0.25], size=(n, n)), k=1)
        overlap = overlap + overlap.T
        mixed = _synthetic(n, rng.choice([3.0, 4.0], size=n), overlap)
        single = np.zeros((n, n), dtype=bool)
        single[3, 7] = True
        for data in (flat, mixed):
            for avg in (
                np.full(n, 0.5),  # all four combos of every pair tie on `flat`
                rng.choice([0.25, 0.5, 0.75], size=n),
                rng.random(n),
            ):
                yield data, avg, full
                yield data, avg, single
                yield data, avg, full & (rng.random((n, n)) < 0.4) | single
                for max_pairs in (1, 5, 17):
                    yield data, avg, _pruned(data, max_pairs)


class TestStackedPick:
    def test_cost_matrices_equal_one_matrix_per_combo(self):
        """All four K matrices computed at once are byte-equal to one
        matrix per combination, diagonals (+inf) included."""
        for data, avg, _remaining in _cases():
            matrices = cost_matrices(data, avg)
            assert list(matrices) == list(COMBOS)
            stacked = np.stack([matrices[combo] for combo in COMBOS])
            assert stacked.tobytes() == reference_cost_stack(data, avg, True).tobytes()

    def test_single_pick_matches_flat_argmin(self):
        """Without a walk, one pick is the flat argmin's and leaves the
        candidate mask as it was."""
        for data, avg, remaining in _cases():
            before = remaining.copy()
            expected = reference_best_pair(data, avg, remaining)
            assert best_pair_and_combo(data, avg, remaining) == expected
            assert np.array_equal(remaining, before)
            walk = PairWalk(data, avg, remaining.copy())
            assert best_pair_and_combo(data, avg, walk.remaining, walk) == expected

    def test_all_tied_pick_is_first_combo_then_lowest_pair(self):
        n = 5
        data = _synthetic(n, np.full(n, 2.0), np.zeros((n, n)))
        remaining = np.triu(np.ones((n, n), dtype=bool), k=1)
        remaining[0, 1] = False
        assert best_pair_and_combo(data, np.full(n, 0.5), remaining)[:3] == (
            0, 2, COMBOS[0],
        )

    def test_walk_matches_flat_argmin_pick_by_pick(self):
        """Every pick of a walk, through retirements and commits (a new
        ranking each), is the flat argmin over the remaining pairs; the
        walk clears each picked pair from its mask, and once no pair is
        left it raises as an empty candidate set does."""
        rng = np.random.default_rng(9)
        for data, avg, remaining in _cases():
            avg, remaining = avg.copy(), remaining.copy()
            walk = PairWalk(data, avg, remaining)
            assert walk.remaining is remaining  # the caller's mask, cleared in place
            for _step in range(int(remaining.sum())):
                expected = reference_best_pair(data, avg, remaining)
                i, j, combo, cost = best_pair_and_combo(data, avg, remaining, walk)
                assert (i, j, combo, cost) == expected
                assert not remaining[i, j]
                inverted = [k for k, move in zip((i, j), combo) if move is Move.INVERT]
                if inverted and rng.random() < 0.3:  # a commit
                    avg[inverted] = 1.0 - avg[inverted]
                    walk.rank(avg)
            assert not remaining.any()
            with pytest.raises(PhaseError, match="candidate pair set is empty"):
                best_pair_and_combo(data, avg, remaining, walk)


def _loop_circuits():
    """Seeded generated circuits of 3 to 24 outputs."""
    for index in (2, 5, 9):
        yield cleanup(to_aoi(parse_blif(small_pool_blif(index))))
    for seed, n_outputs in ((1, 12), (2, 16), (3, 24)):
        config = GeneratorConfig(
            n_inputs=20, n_outputs=n_outputs, n_gates=8 * n_outputs, seed=seed
        )
        yield cleanup(to_aoi(random_control_network(f"W{seed}", config)))


_BUDGETS = (
    OptimizerBudget(),
    OptimizerBudget(max_evaluations=25),
    OptimizerBudget(tolerance=0.02),
    OptimizerBudget(max_evaluations=60, tolerance=0.005),
)


def _outcome(result):
    return (
        result.assignment, result.power, result.initial_power,
        result.evaluations, result.history,
    )


class TestWalkLoopParity:
    """The whole Section 4.1 loop on the walk against the loop that took a
    flat argmin every step (``reference_pairwise_loop``): the same
    assignment, power, evaluation count and commit history."""

    @pytest.mark.parametrize("max_pairs", [None, 0, 1, 7])
    def test_pairwise_strategy(self, monkeypatch, max_pairs):
        strategy = PairwiseStrategy(exhaustive_limit=0, max_pairs=max_pairs)
        for network in _loop_circuits():
            evaluator = PhaseEvaluator(network, method="bdd")
            for budget in _BUDGETS:
                walked = strategy.optimize(evaluator, budget=budget)
                with monkeypatch.context() as patch:
                    patch.setattr(strategies, "pairwise_loop", reference_pairwise_loop)
                    expected = strategy.optimize(evaluator, budget=budget)
                assert _outcome(walked) == _outcome(expected), (network.name, budget)
                if max_pairs is None and budget == OptimizerBudget():
                    n = len(evaluator.outputs)
                    assert walked.evaluations == 1 + n * (n - 1) // 2

    def test_timing_aware_search(self, monkeypatch):
        """Section 6's search drives the same loop with a delay penalty."""
        for network in list(_loop_circuits())[3:]:
            evaluator = PhaseEvaluator(network, method="bdd")
            walked = timing_aware.minimize_power_timing_aware(
                evaluator, method="pairwise", slack_fraction=0.9
            )
            with monkeypatch.context() as patch:
                patch.setattr(timing_aware, "pairwise_loop", reference_pairwise_loop)
                expected = timing_aware.minimize_power_timing_aware(
                    evaluator, method="pairwise", slack_fraction=0.9
                )
            assert walked == expected

"""Unit tests for the min-area baseline and the min-power optimiser."""

import pytest

from helpers import ranked_pairs
from repro.core.cost import CostModelData
from repro.core.min_area import minimize_area
from repro.optimize import make_strategy
from repro.phase import Phase, PhaseAssignment, enumerate_assignments
from repro.power.estimator import DominoPowerModel, PhaseEvaluator


@pytest.fixture
def fig3_evaluator(fig3_aoi):
    return PhaseEvaluator(
        fig3_aoi, input_probs={pi: 0.9 for pi in fig3_aoi.inputs}, method="bdd"
    )


@pytest.fixture
def random_evaluator(medium_random):
    return PhaseEvaluator(medium_random, method="bdd")


class TestMinimizeArea:
    def test_exhaustive_finds_global_optimum(self, fig3_evaluator):
        result = minimize_area(fig3_evaluator)
        assert result.method == "exhaustive"
        best = min(
            fig3_evaluator.area(a)
            for a in enumerate_assignments(fig3_evaluator.outputs)
        )
        assert result.area == best

    def test_fig3_min_area_is_aligned(self, fig3_evaluator):
        result = minimize_area(fig3_evaluator)
        # The aligned assignment (f-, g+): 3 gates + 1 output inverter.
        assert result.area == 4
        assert result.assignment["f"] is Phase.NEGATIVE
        assert result.assignment["g"] is Phase.POSITIVE

    def test_hill_climb_used_beyond_limit(self, random_evaluator):
        result = minimize_area(random_evaluator, exhaustive_limit=2)
        assert result.method == "hill-climb"
        # Hill climbing never ends above the all-positive start.
        start_area = random_evaluator.area(
            PhaseAssignment.all_positive(random_evaluator.outputs)
        )
        assert result.area <= start_area

    def test_hill_climb_close_to_exhaustive(self, random_evaluator):
        hc = minimize_area(random_evaluator, exhaustive_limit=2)
        ex = minimize_area(random_evaluator, exhaustive_limit=10)
        assert ex.method == "exhaustive"
        assert hc.area <= ex.area * 1.15

    def test_evaluation_count_tracked(self, fig3_evaluator):
        result = minimize_area(fig3_evaluator)
        assert result.evaluations == 4  # 2^2 assignments


class TestMinimizePower:
    def test_exhaustive_finds_global_optimum(self, fig3_evaluator):
        result = make_strategy("exhaustive").optimize(fig3_evaluator)
        best = min(
            fig3_evaluator.power(a)
            for a in enumerate_assignments(fig3_evaluator.outputs)
        )
        assert result.power == pytest.approx(best)

    def test_fig3_optimum_is_negative_cone(self, fig3_evaluator):
        result = make_strategy("exhaustive").optimize(fig3_evaluator)
        assert result.assignment["f"] is Phase.POSITIVE
        assert result.assignment["g"] is Phase.NEGATIVE

    def test_auto_dispatch(self, fig3_evaluator, random_evaluator):
        small = make_strategy("pairwise").optimize(fig3_evaluator)
        assert small.method == "exhaustive"
        large = make_strategy("pairwise", exhaustive_limit=3).optimize(random_evaluator)
        assert large.method == "pairwise"

    def test_pairwise_never_worse_than_start(self, random_evaluator):
        start = PhaseAssignment.all_positive(random_evaluator.outputs)
        result = make_strategy("pairwise", exhaustive_limit=0).optimize(
            random_evaluator, initial=start
        )
        assert result.power <= result.initial_power

    def test_pairwise_commits_only_improvements(self, random_evaluator):
        result = make_strategy("pairwise", exhaustive_limit=0).optimize(random_evaluator)
        power = result.initial_power
        current_best = power
        for record in result.history:
            if record.committed:
                assert record.candidate_power < current_best
                current_best = record.candidate_power
        assert result.power == pytest.approx(current_best)

    def test_pairwise_candidate_set_exhausted(self, random_evaluator):
        n = len(random_evaluator.outputs)
        result = make_strategy("pairwise", exhaustive_limit=0).optimize(random_evaluator)
        assert len(result.history) == n * (n - 1) // 2

    def test_max_pairs_truncation(self, random_evaluator):
        result = make_strategy(
            "pairwise", exhaustive_limit=0, max_pairs=5
        ).optimize(random_evaluator)
        assert len(result.history) == 5

    def test_max_pairs_cut_inside_a_tie_keeps_the_lowest_pairs(self, random_evaluator):
        ev = random_evaluator
        n = len(ev.outputs)
        ranked = ranked_pairs(CostModelData.from_network(ev.network))
        max_pairs = 8
        assert ranked[max_pairs - 1][0] == ranked[max_pairs][0]  # the cut splits a tie
        result = make_strategy(
            "pairwise", exhaustive_limit=0, max_pairs=max_pairs
        ).optimize(ev)
        kept = {(ev.outputs[k // n], ev.outputs[k % n]) for _, k in ranked[:max_pairs]}
        assert {step.pair for step in result.history} == kept

    def test_pairwise_close_to_exhaustive_on_fig3(self, fig3_evaluator):
        pw = make_strategy("pairwise", exhaustive_limit=0).optimize(fig3_evaluator)
        ex = make_strategy("exhaustive").optimize(fig3_evaluator)
        assert pw.power == pytest.approx(ex.power)

    def test_savings_percent(self, fig3_evaluator):
        result = make_strategy("exhaustive").optimize(fig3_evaluator)
        assert result.savings_percent >= 0.0

    def test_single_output_circuit(self):
        from repro.network.netlist import GateType, LogicNetwork

        net = LogicNetwork("one")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", GateType.OR, ["a", "b"])
        net.add_output("g")
        ev = PhaseEvaluator(net, input_probs={"a": 0.9, "b": 0.9}, method="bdd")
        result = make_strategy("pairwise", exhaustive_limit=0).optimize(ev)
        # OR at p=0.99: negative phase (AND of complements, p=.01) wins.
        assert result.assignment["g"] is Phase.NEGATIVE


class TestRandomSearch:
    def test_never_worse_than_start(self, random_evaluator):
        result = make_strategy("random", n_samples=16).optimize(
            random_evaluator, seed=0
        )
        assert result.power <= result.initial_power

    def test_pairwise_beats_or_ties_random(self, random_evaluator):
        rnd = make_strategy("random", n_samples=16).optimize(random_evaluator, seed=0)
        pw = make_strategy("pairwise", exhaustive_limit=0).optimize(random_evaluator)
        # The paper's heuristic should not lose badly to random sampling.
        assert pw.power <= rnd.power * 1.05

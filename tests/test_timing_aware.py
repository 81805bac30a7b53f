"""Tests for the timing-aware phase optimiser (paper Section 6 future work)
and the group-extended cost function."""

import pytest

from repro.core.cost import Move, group_cost, pair_cost
from repro.core.timing_aware import (
    PhaseTimingModel,
    minimize_power_timing_aware,
)
from repro.errors import PhaseError
from repro.optimize import make_strategy
from repro.network.netlist import GateType, LogicNetwork
from repro.phase import Phase, PhaseAssignment
from repro.power.estimator import PhaseEvaluator

import numpy as np


@pytest.fixture
def fig3_evaluator(fig3_aoi):
    return PhaseEvaluator(
        fig3_aoi, input_probs={pi: 0.9 for pi in fig3_aoi.inputs}, method="bdd"
    )


@pytest.fixture
def medium_evaluator(medium_random):
    return PhaseEvaluator(medium_random, method="bdd")


class TestPhaseTimingModel:
    def test_arrival_positive(self, fig3_evaluator):
        model = PhaseTimingModel(fig3_evaluator)
        a = PhaseAssignment.all_positive(fig3_evaluator.outputs)
        assert model.critical_delay(a) > 0

    def test_negative_phase_or_cone_is_slower(self, fig3_evaluator):
        # The f/g cone is OR-rich; its negative realisation is AND-rich
        # and carries series-stack penalties.
        model = PhaseTimingModel(fig3_evaluator)
        pos = model.output_arrival("g", Phase.POSITIVE)
        neg = model.output_arrival("g", Phase.NEGATIVE)
        assert neg > pos

    def test_deep_and_chain_arrival_grows(self):
        net = LogicNetwork("chain")
        net.add_input("x0")
        prev = "x0"
        for i in range(1, 6):
            net.add_input(f"x{i}")
            net.add_gate(f"g{i}", GateType.AND, [prev, f"x{i}"])
            prev = f"g{i}"
        net.add_output("out", prev)
        ev = PhaseEvaluator(net, method="bdd")
        model = PhaseTimingModel(ev)
        assert model.output_arrival("out", Phase.POSITIVE) > 4.0

    def test_monotone_in_cone_depth(self, medium_evaluator):
        model = PhaseTimingModel(medium_evaluator)
        ev = medium_evaluator
        # Larger cones never finish earlier than a trivial one.
        arrivals = [
            model.output_arrival(po, Phase.POSITIVE) for po in ev.outputs
        ]
        assert min(arrivals) >= 0.0
        assert max(arrivals) >= min(arrivals)


class TestTimingAwareOptimisation:
    def test_respects_tight_target(self, fig3_evaluator):
        model = PhaseTimingModel(fig3_evaluator)
        start = PhaseAssignment.all_positive(fig3_evaluator.outputs)
        tight = model.critical_delay(start)
        result = minimize_power_timing_aware(
            fig3_evaluator, target_delay=tight, penalty_weight=1e6
        )
        assert result.meets_target
        assert result.delay <= tight + 1e-9

    def test_loose_target_recovers_power_optimum(self, fig3_evaluator):
        result = minimize_power_timing_aware(
            fig3_evaluator, target_delay=1e9, penalty_weight=10.0
        )
        unconstrained = make_strategy("exhaustive").optimize(fig3_evaluator)
        assert result.power == pytest.approx(unconstrained.power)

    def test_tension_between_power_and_delay(self, fig3_evaluator):
        # With the f/g example, the power optimum uses the slow AND-rich
        # negative cone; a tight target forces a faster, hungrier choice.
        loose = minimize_power_timing_aware(fig3_evaluator, target_delay=1e9)
        model = PhaseTimingModel(fig3_evaluator)
        start = PhaseAssignment.all_positive(fig3_evaluator.outputs)
        tight = minimize_power_timing_aware(
            fig3_evaluator,
            target_delay=model.critical_delay(start),
            penalty_weight=1e6,
        )
        assert tight.delay <= loose.delay
        assert tight.power >= loose.power

    def test_pairwise_method_on_larger_circuit(self, medium_evaluator):
        result = minimize_power_timing_aware(
            medium_evaluator, method="pairwise", slack_fraction=1.1
        )
        assert result.method == "pairwise"
        assert result.power <= result.initial_power + 1e-9
        assert result.evaluations > 1

    def test_invalid_target_rejected(self, fig3_evaluator):
        with pytest.raises(PhaseError):
            minimize_power_timing_aware(fig3_evaluator, target_delay=-1.0)

    def test_unknown_method_rejected(self, fig3_evaluator):
        with pytest.raises(PhaseError):
            minimize_power_timing_aware(fig3_evaluator, method="bogus")

    def test_savings_percent(self, fig3_evaluator):
        result = minimize_power_timing_aware(fig3_evaluator, target_delay=1e9)
        assert result.savings_percent >= 0.0


class TestGroupCost:
    def test_pairwise_special_case(self):
        overlaps = np.array([[0.0, 0.3], [0.3, 0.0]])
        for mi in (Move.RETAIN, Move.INVERT):
            for mj in (Move.RETAIN, Move.INVERT):
                g = group_cost([10, 20], overlaps, [0.8, 0.4], [mi, mj])
                p = pair_cost(10, 20, 0.3, 0.8, 0.4, mi, mj)
                assert g == pytest.approx(p)

    def test_triple_cost_formula(self):
        overlaps = np.array(
            [[0.0, 0.2, 0.1], [0.2, 0.0, 0.4], [0.1, 0.4, 0.0]]
        )
        moves = [Move.RETAIN, Move.INVERT, Move.RETAIN]
        g = group_cost([5, 6, 7], overlaps, [0.9, 0.8, 0.3], moves)
        a = [0.9, 0.2, 0.3]
        expected = 5 * a[0] + 6 * a[1] + 7 * a[2]
        expected += 0.5 * (0.2 * (a[0] + a[1]) + 0.1 * (a[0] + a[2]) + 0.4 * (a[1] + a[2]))
        assert g == pytest.approx(expected)


class TestGroupwiseOptimiser:
    def test_groupwise_runs_and_improves(self, medium_evaluator):
        result = make_strategy("groupwise", group_size=3).optimize(medium_evaluator)
        assert result.method == "groupwise-3"
        assert result.power <= result.initial_power + 1e-9

    def test_groupwise_no_worse_than_pairwise(self, medium_evaluator):
        pw = make_strategy("pairwise", exhaustive_limit=0).optimize(medium_evaluator)
        gw = make_strategy("groupwise", group_size=3).optimize(medium_evaluator)
        # The richer interaction model should be competitive.
        assert gw.power <= pw.power * 1.10 + 1e-9

    def test_groupwise_matches_exhaustive_on_fig3(self, fig3_evaluator):
        gw = make_strategy("pairwise", exhaustive_limit=0).optimize(fig3_evaluator)
        ex = make_strategy("exhaustive").optimize(fig3_evaluator)
        assert gw.power == pytest.approx(ex.power)

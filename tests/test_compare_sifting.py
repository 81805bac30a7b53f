"""Tests for the static-vs-domino comparison and BDD order refinement."""

import pytest

from repro.bdd.sifting import sift_order
from repro.bdd.builder import build_node_bdds
from repro.bdd.ordering import domino_variable_order
from repro.bench.figures import figure10_network
from repro.errors import BddError
from repro.network.netlist import GateType, LogicNetwork
from repro.phase import PhaseAssignment
from repro.power.compare import compare_static_vs_domino
from repro.power.estimator import DominoPowerModel


class TestStaticVsDomino:
    def test_domino_costs_more(self, small_random):
        report = compare_static_vs_domino(small_random)
        assert report.ratio > 1.0
        assert report.domino_power == pytest.approx(
            report.domino_switching + report.domino_clock + report.domino_boundary
        )

    def test_ratio_in_papers_ballpark(self, medium_random):
        # "up to four times the power of an equivalent static gate" —
        # our OR-rich synthetic cones skew probabilities high, which
        # additionally starves the static reference of transitions, so
        # allow some headroom above the paper's quoted factor.
        report = compare_static_vs_domino(medium_random)
        assert 1.0 < report.ratio < 12.0

    def test_clock_load_contributes(self, small_random):
        with_clock = compare_static_vs_domino(
            small_random, model=DominoPowerModel(clock_cap_per_gate=0.5)
        )
        without = compare_static_vs_domino(
            small_random, model=DominoPowerModel(clock_cap_per_gate=0.0)
        )
        assert with_clock.ratio > without.ratio

    def test_duplication_factor(self, fig3):
        report = compare_static_vs_domino(
            fig3,
            assignment=PhaseAssignment.all_positive(["f", "g"]),
        )
        # The all-positive assignment duplicates the whole shared cone.
        assert report.duplication_factor > 1.0

    def test_skewed_inputs_shift_ratio(self, small_random):
        # At p near 1 static gates almost never switch but domino gates
        # fire nearly every cycle: the ratio explodes.
        skewed = compare_static_vs_domino(
            small_random, input_probs={pi: 0.95 for pi in small_random.inputs}
        )
        balanced = compare_static_vs_domino(small_random)
        assert skewed.ratio > balanced.ratio


class TestSiftOrder:
    def test_never_worse_than_start(self, fig10):
        result = sift_order(fig10, passes=2)
        assert result.final_size <= result.initial_size
        assert sorted(result.order) == sorted(fig10.inputs)

    def test_improves_bad_initial_order(self, fig10):
        # Start from the worst static ordering we have.
        from repro.bdd.ordering import naive_topological_order

        bad = naive_topological_order(fig10)
        result = sift_order(fig10, initial_order=bad, passes=2)
        assert result.final_size <= result.initial_size
        # The paper's heuristic already achieves 5 on this example;
        # sifting from the bad order should recover most of the gap.
        heuristic = sift_order(fig10, passes=0)
        assert result.final_size <= heuristic.initial_size + 1

    def test_order_is_valid_for_building(self, small_random):
        result = sift_order(small_random, passes=1, candidate_positions=4)
        bdds = build_node_bdds(small_random, variable_order=result.order)
        assert bdds.manager.node_count > 0

    def test_variable_limit(self):
        net = LogicNetwork("wide")
        pis = [f"x{i}" for i in range(50)]
        for pi in pis:
            net.add_input(pi)
        net.add_gate("g", GateType.OR, pis)
        net.add_output("g")
        with pytest.raises(BddError):
            sift_order(net, max_variables=40)

    def test_rebuild_count_reported(self, fig10):
        result = sift_order(fig10, passes=1, candidate_positions=3)
        assert result.rebuilds >= 1

    def test_paper_heuristic_is_near_sifted_quality(self, medium_random):
        """Ablation claim: the static domino ordering leaves little on
        the table compared to (rebuild-based) sifting."""
        start = domino_variable_order(medium_random)
        result = sift_order(
            medium_random, initial_order=start, passes=1, candidate_positions=4
        )
        # Sifting may improve, but not by an order of magnitude.
        assert result.final_size >= result.initial_size * 0.3

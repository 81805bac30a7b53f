"""Unit tests for network-to-BDD construction and orderings."""

import itertools
import random

import pytest

from repro.errors import BddError
from repro.bdd.builder import build_node_bdds, compare_orderings
from repro.bdd.ordering import (
    declaration_order,
    disturbed_order,
    domino_variable_order,
    naive_topological_order,
    order_variables,
)
from repro.bench.figures import figure7_network
from repro.bench.generators import random_sequential_network
from repro.network.blif import parse_blif
from repro.network.netlist import GateType, LogicNetwork, SopCover
from repro.network.ops import cleanup, to_aoi

from helpers import (
    all_input_vectors,
    large_pool_network,
    random_mixed_network,
    small_pool_blif,
)


class TestBuilderCorrectness:
    def test_bdds_match_simulation(self, small_random):
        bdds = build_node_bdds(small_random)
        import random

        rng = random.Random(0)
        for _ in range(64):
            vec = {pi: rng.random() < 0.5 for pi in small_random.inputs}
            values = small_random.evaluate(vec)
            for po, driver in small_random.outputs:
                assert bdds.manager.evaluate(bdds.bdd_of(driver), vec) == values[driver]

    def test_exhaustive_on_figure3(self, fig3):
        bdds = build_node_bdds(fig3)
        for vec in all_input_vectors(fig3.inputs):
            values = fig3.evaluate(vec)
            for po, driver in fig3.outputs:
                assert bdds.manager.evaluate(bdds.bdd_of(driver), vec) == values[driver]

    def test_probabilities_match_enumeration(self, fig3):
        bdds = build_node_bdds(fig3)
        probs = {pi: 0.5 for pi in fig3.inputs}
        for po, driver in fig3.outputs:
            count = sum(
                fig3.evaluate(vec)[driver] for vec in all_input_vectors(fig3.inputs)
            )
            expected = count / 16.0
            assert bdds.probability(driver, probs) == pytest.approx(expected)

    def test_all_gate_types(self):
        net = LogicNetwork("m")
        for pi in ("a", "b", "c"):
            net.add_input(pi)
        net.add_gate("and2", GateType.AND, ["a", "b"])
        net.add_gate("or2", GateType.OR, ["a", "b"])
        net.add_gate("nand2", GateType.NAND, ["a", "b"])
        net.add_gate("nor2", GateType.NOR, ["a", "b"])
        net.add_gate("xor2", GateType.XOR, ["a", "b"])
        net.add_gate("xnor2", GateType.XNOR, ["a", "b"])
        net.add_gate("mux", GateType.MUX, ["a", "b", "c"])
        net.add_gate("inv", GateType.NOT, ["a"])
        net.add_gate(
            "sop",
            GateType.SOP,
            ["a", "b"],
            cover=SopCover(cubes=["1-", "01"], output_value="0"),
        )
        for g in list(net.nodes):
            if net.nodes[g].gate_type not in (GateType.INPUT,):
                net.add_output(f"po_{g}", g)
        bdds = build_node_bdds(net)
        for vec in all_input_vectors(net.inputs):
            values = net.evaluate(vec)
            for po, driver in net.outputs:
                assert bdds.manager.evaluate(bdds.bdd_of(driver), vec) == values[driver]

    def test_unrequested_node_has_no_bdd(self, simple_and_or):
        bdds = build_node_bdds(simple_and_or, roots=["x"])
        with pytest.raises(BddError):
            bdds.bdd_of("y")

    def test_budget_propagates(self, medium_random):
        with pytest.raises(BddError):
            build_node_bdds(medium_random, max_nodes=4)

    def test_latch_outputs_are_variables(self, fig7):
        bdds = build_node_bdds(fig7, roots=["g1"])
        assert "l1" in bdds.manager.variables


def _probability_networks():
    nets = [cleanup(to_aoi(parse_blif(small_pool_blif(index)))) for index in range(0, 40, 3)]
    nets.append(figure7_network())
    for seed in range(4):
        nets.append(random_sequential_network(f"q{seed}", 8, 4, 40, seed=seed))
        nets.append(random_mixed_network(seed, n_latches=2))
    nets.append(large_pool_network(1))
    return nets


class TestProbabilities:
    def test_one_pass_equals_per_node_probability(self):
        """``probabilities`` gives every node the float, and the order,
        of one ``manager.probability`` call per node, under non-uniform
        probabilities on inputs and latch variables, with some variables
        left at the 0.5 default."""
        latch_vars = 0
        for index, net in enumerate(_probability_networks()):
            bdds = build_node_bdds(net)
            rng = random.Random(index)
            var_probs = {
                v: rng.random() for v in bdds.manager.variables if rng.random() < 0.9
            }
            latch_vars += sum(latch.name in var_probs for latch in net.latches)
            expected = {
                name: bdds.manager.probability(f, var_probs)
                for name, f in bdds.node_bdds.items()
            }
            assert list(bdds.probabilities(var_probs).items()) == list(expected.items())
        assert latch_vars > 0


class TestSharedSize:
    def test_shared_size_counts_all_roots(self, fig10):
        bdds = build_node_bdds(fig10)
        total = bdds.shared_size()
        assert total > 0
        assert total <= bdds.manager.node_count

    def test_shared_size_subset(self, fig10):
        bdds = build_node_bdds(fig10)
        assert bdds.shared_size(["Q"]) <= bdds.shared_size(["Q", "R"])


class TestOrderings:
    def test_domino_order_is_reverse_of_topological(self, fig10):
        dom = domino_variable_order(fig10)
        topo = naive_topological_order(fig10)
        assert dom == list(reversed(topo))

    def test_orders_are_permutations(self, medium_random):
        base = set(medium_random.inputs)
        for strategy in ("domino", "topological", "disturbed", "declaration"):
            order = order_variables(medium_random, strategy)
            assert set(order) == base

    def test_unknown_strategy_raises(self, fig10):
        with pytest.raises(ValueError):
            order_variables(fig10, "bogus")

    def test_declaration_order_restricted_to_cone(self, simple_and_or):
        order = declaration_order(simple_and_or, roots=["y"])
        assert order == ["a", "b"]

    def test_disturbed_differs_from_domino(self, medium_random):
        dom = domino_variable_order(medium_random)
        dis = disturbed_order(medium_random)
        assert dom != dis

    def test_figure10_order(self, fig10):
        # First visit: Q (larger fanout cone) then P then R.
        topo = naive_topological_order(fig10)
        assert topo == ["x3", "x4", "x1", "x2", "x5"]
        assert domino_variable_order(fig10) == ["x5", "x2", "x1", "x4", "x3"]


class TestCompareOrderings:
    def test_figure10_shape(self, fig10):
        counts = compare_orderings(fig10)
        assert counts["domino"] <= counts["disturbed"] <= counts["topological"]

    def test_all_orderings_same_function(self, fig10):
        # Node counts differ, functions must not.
        for strategy in ("domino", "topological", "disturbed"):
            bdds = build_node_bdds(fig10, ordering=strategy)
            for vec in all_input_vectors(fig10.inputs):
                values = fig10.evaluate(vec)
                for po, driver in fig10.outputs:
                    assert (
                        bdds.manager.evaluate(bdds.bdd_of(driver), vec)
                        == values[driver]
                    )

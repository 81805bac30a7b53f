"""Unit tests for repro.network.topo."""

import random

import pytest

from repro.bench.generators import (
    GeneratorConfig,
    random_control_network,
    random_sequential_network,
)
from repro.network.netlist import GateType, LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.network.topo import (
    check_inverter_free,
    cone_overlap,
    depth,
    fanout_cone_sizes,
    levels,
    output_cones,
    support,
    transitive_fanin,
    transitive_fanout,
)


class TestLevels:
    def test_sources_are_level_zero(self, simple_and_or):
        lv = levels(simple_and_or)
        assert lv["a"] == lv["b"] == lv["c"] == 0

    def test_gate_levels(self, simple_and_or):
        lv = levels(simple_and_or)
        assert lv["ab"] == 1
        assert lv["x"] == 2
        assert lv["y"] == 2

    def test_latches_are_level_zero(self, fig7):
        lv = levels(fig7)
        assert lv["l0"] == 0
        assert lv["l1"] == 0

    def test_depth(self, simple_and_or):
        assert depth(simple_and_or) == 2

    def test_depth_of_source_only_network(self):
        net = LogicNetwork()
        net.add_input("a")
        assert depth(net) == 0


class TestTransitiveFanin:
    def test_includes_root(self, simple_and_or):
        cone = transitive_fanin(simple_and_or, ["x"])
        assert "x" in cone

    def test_full_cone(self, simple_and_or):
        cone = transitive_fanin(simple_and_or, ["x"])
        assert cone == {"x", "ab", "a", "b", "c"}

    def test_without_sources(self, simple_and_or):
        cone = transitive_fanin(simple_and_or, ["x"], include_sources=False)
        assert cone == {"x", "ab"}

    def test_stops_at_latches(self, fig7):
        cone = transitive_fanin(fig7, ["g1"])
        assert "l1" in cone
        # The latch's own data cone (g2 etc.) is not entered.
        assert "g2" not in cone

    def test_multiple_roots(self, simple_and_or):
        cone = transitive_fanin(simple_and_or, ["x", "y"], include_sources=False)
        assert cone == {"x", "y", "ab"}


class TestTransitiveFanout:
    def test_fanout_of_input(self, simple_and_or):
        cone = transitive_fanout(simple_and_or, ["a"])
        assert cone == {"a", "ab", "x", "y"}

    def test_fanout_of_output_gate(self, simple_and_or):
        assert transitive_fanout(simple_and_or, ["x"]) == {"x"}

    def test_fanout_stops_at_latches(self, fig7):
        cone = transitive_fanout(fig7, ["g1"])
        # g1 feeds d0 which feeds latch l0; the latch is included as a
        # boundary but not walked through.
        assert "d0" in cone
        assert "l0" in cone
        assert "g2" not in cone


class TestOutputCones:
    def test_cones_keyed_by_po(self, simple_and_or):
        cones = output_cones(simple_and_or)
        assert set(cones) == {"x", "y"}
        assert cones["x"] == {"x", "ab"}
        assert cones["y"] == {"y", "ab"}

    def test_overlap_measure(self, simple_and_or):
        cones = output_cones(simple_and_or)
        o = cone_overlap(cones["x"], cones["y"])
        # |{ab}| / (2 + 2) = 0.25
        assert o == pytest.approx(0.25)

    def test_overlap_of_empty_cones(self):
        assert cone_overlap(set(), set()) == 0.0

    def test_overlap_symmetry(self, medium_random):
        cones = output_cones(medium_random)
        names = list(cones)
        for a in names:
            for b in names:
                assert cone_overlap(cones[a], cones[b]) == pytest.approx(
                    cone_overlap(cones[b], cones[a])
                )


class TestSupport:
    def test_support_order_follows_declaration(self, simple_and_or):
        assert support(simple_and_or, "x") == ["a", "b", "c"]
        assert support(simple_and_or, "y") == ["a", "b"]

    def test_support_includes_latches(self, fig7):
        s = support(fig7, "g1")
        assert "l1" in s


class TestFanoutConeSizes:
    def test_terminal_gate_size_one(self, simple_and_or):
        sizes = fanout_cone_sizes(simple_and_or)
        assert sizes["x"] == 1
        assert sizes["y"] == 1

    def test_shared_gate_counts_both_sinks(self, simple_and_or):
        sizes = fanout_cone_sizes(simple_and_or)
        assert sizes["ab"] == 3  # ab, x, y


def _reference_cone_sizes(network):
    """One :func:`transitive_fanout` walk per node."""
    fanouts = network.fanout_map()
    return {
        name: len(transitive_fanout(network, [name], fanouts=fanouts))
        for name in network.nodes
    }


def _combinational(seed):
    rng = random.Random(seed)
    n_outputs = rng.randint(1, 12)
    config = GeneratorConfig(
        n_inputs=rng.randint(4, 24),
        n_outputs=n_outputs,
        n_gates=rng.randint(3, 12) * n_outputs,
        seed=seed,
        support_size=rng.randint(2, 10),
    )
    return random_control_network(f"c{seed}", config)


def _sequential(seed):
    rng = random.Random(seed)
    return random_sequential_network(
        f"s{seed}",
        n_inputs=rng.randint(2, 8),
        n_latches=rng.randint(1, 6),
        n_gates=rng.randint(4, 30),
        seed=seed,
        twin_groups=rng.randint(0, 2),
    )


@pytest.mark.parametrize("seed", range(12))
def test_fanout_cone_sizes_equal_per_node_walks_combinational(seed):
    network = _combinational(seed)
    for form in (network, cleanup(to_aoi(network))):
        assert fanout_cone_sizes(form) == _reference_cone_sizes(form)


@pytest.mark.parametrize("seed", range(12))
def test_fanout_cone_sizes_equal_per_node_walks_sequential(seed):
    network = _sequential(seed)
    assert network.latches
    assert fanout_cone_sizes(network) == _reference_cone_sizes(network)


class TestInverterFree:
    def test_offenders_found(self, simple_and_or):
        assert check_inverter_free(simple_and_or) == ["y"]

    def test_clean_network(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", GateType.AND, ["a", "b"])
        net.add_output("g")
        assert check_inverter_free(net) == []

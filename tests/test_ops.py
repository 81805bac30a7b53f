"""Unit tests for repro.network.ops."""

import pytest

from repro.errors import NetworkError
from repro.network.blif import parse_blif
from repro.network.netlist import GateType, LogicNetwork, SopCover
from repro.network.ops import (
    cleanup,
    collapse_buffers,
    count_gate_types,
    demorgan_node,
    expand_sop_nodes,
    networks_equivalent,
    propagate_constants,
    sweep_dead_nodes,
    to_aoi,
)

from helpers import all_input_vectors, random_mixed_network, small_pool_blif


def _xor_net():
    net = LogicNetwork("xor")
    net.add_input("a")
    net.add_input("b")
    net.add_gate("x", GateType.XOR, ["a", "b"])
    net.add_output("x")
    return net


class TestExpandSop:
    def test_sop_becomes_aoi(self):
        net = LogicNetwork("m")
        for pi in ("a", "b"):
            net.add_input(pi)
        cover = SopCover(cubes=["10", "01"], output_value="1")
        net.add_gate("f", GateType.SOP, ["a", "b"], cover=cover)
        net.add_output("f")
        out = expand_sop_nodes(net)
        assert all(
            n.gate_type in (GateType.AND, GateType.OR, GateType.NOT, GateType.BUF)
            for n in out.gates
        )
        assert networks_equivalent(net, out)

    def test_offset_cover_gets_inverter(self):
        net = LogicNetwork("m")
        net.add_input("a")
        cover = SopCover(cubes=["1"], output_value="0")
        net.add_gate("f", GateType.SOP, ["a"], cover=cover)
        net.add_output("f")
        out = expand_sop_nodes(net)
        assert networks_equivalent(net, out)
        assert out.nodes["f"].gate_type is GateType.NOT

    def test_empty_cover_is_constant(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_gate("f", GateType.SOP, ["a"], cover=SopCover(cubes=[], output_value="1"))
        net.add_output("f")
        out = expand_sop_nodes(net)
        assert out.nodes["f"].gate_type is GateType.CONST0

    def test_single_cube_single_literal(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_gate("f", GateType.SOP, ["a"], cover=SopCover(cubes=["1"], output_value="1"))
        net.add_output("f")
        out = expand_sop_nodes(net)
        assert networks_equivalent(net, out)


class TestToAoi:
    @pytest.mark.parametrize(
        "gate_type,n",
        [
            (GateType.NAND, 2),
            (GateType.NOR, 3),
            (GateType.XOR, 2),
            (GateType.XOR, 3),
            (GateType.XNOR, 2),
        ],
    )
    def test_lowering_preserves_function(self, gate_type, n):
        net = LogicNetwork("m")
        pis = [f"i{k}" for k in range(n)]
        for pi in pis:
            net.add_input(pi)
        net.add_gate("f", gate_type, pis)
        net.add_output("f")
        out = to_aoi(net)
        assert networks_equivalent(net, out)
        allowed = (GateType.AND, GateType.OR, GateType.NOT, GateType.BUF)
        assert all(g.gate_type in allowed for g in out.gates)

    def test_mux_lowering(self):
        net = LogicNetwork("m")
        for pi in ("s", "d0", "d1"):
            net.add_input(pi)
        net.add_gate("f", GateType.MUX, ["s", "d0", "d1"])
        net.add_output("f")
        out = to_aoi(net)
        assert networks_equivalent(net, out)

    def test_aoi_is_idempotent(self, fig3_aoi):
        again = to_aoi(fig3_aoi)
        assert networks_equivalent(fig3_aoi, again)


class TestPropagateConstants:
    def test_and_with_constant_false(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_gate("c0", GateType.CONST0, [])
        net.add_gate("g", GateType.AND, ["a", "c0"])
        net.add_output("g")
        out = propagate_constants(net)
        assert out.nodes["g"].gate_type is GateType.CONST0

    def test_or_with_constant_true(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_gate("c1", GateType.CONST1, [])
        net.add_gate("g", GateType.OR, ["a", "c1"])
        net.add_output("g")
        out = propagate_constants(net)
        assert out.nodes["g"].gate_type is GateType.CONST1

    def test_and_drops_constant_true_operand(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("c1", GateType.CONST1, [])
        net.add_gate("g", GateType.AND, ["a", "b", "c1"])
        net.add_output("g")
        out = propagate_constants(net)
        assert out.nodes["g"].fanins == ["a", "b"]

    def test_single_operand_becomes_buffer(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_gate("c1", GateType.CONST1, [])
        net.add_gate("g", GateType.AND, ["a", "c1"])
        net.add_output("g")
        out = propagate_constants(net)
        assert out.nodes["g"].gate_type is GateType.BUF

    def test_not_of_constant(self):
        net = LogicNetwork("m")
        net.add_gate("c0", GateType.CONST0, [])
        net.add_gate("g", GateType.NOT, ["c0"])
        net.add_output("g")
        out = propagate_constants(net)
        assert out.nodes["g"].gate_type is GateType.CONST1

    def test_equivalence_preserved(self, small_random):
        out = propagate_constants(small_random)
        assert networks_equivalent(small_random, out)


class TestCollapseBuffers:
    def test_double_inverter_removed(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_gate("n1", GateType.NOT, ["a"])
        net.add_gate("n2", GateType.NOT, ["n1"])
        net.add_gate("g", GateType.BUF, ["n2"])
        net.add_output("g")
        out = collapse_buffers(net)
        assert out.driver_of("g") == "a"

    def test_buffer_chain_removed(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_gate("b1", GateType.BUF, ["a"])
        net.add_gate("b2", GateType.BUF, ["b1"])
        net.add_output("f", "b2")
        out = collapse_buffers(net)
        assert out.driver_of("f") == "a"

    def test_equivalence(self, small_random):
        assert networks_equivalent(small_random, collapse_buffers(small_random))


class TestSweep:
    def test_dead_gate_removed(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_gate("dead", GateType.NOT, ["a"])
        net.add_gate("live", GateType.BUF, ["a"])
        net.add_output("live")
        out = sweep_dead_nodes(net)
        assert "dead" not in out.nodes
        assert "live" in out.nodes

    def test_inputs_always_kept(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_input("unused")
        net.add_output("f", "a")
        out = sweep_dead_nodes(net)
        assert "unused" in out.nodes
        assert out.inputs == ["a", "unused"]

    def test_latch_cone_kept(self, fig7):
        out = sweep_dead_nodes(fig7)
        assert "g2" in out.nodes  # feeds latch l1's data input


class TestDemorgan:
    def test_demorgan_preserves_function(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", GateType.AND, ["a", "b"])
        net.add_output("g")
        ref = net.copy()
        demorgan_node(net, "g")
        assert networks_equivalent(ref, net)
        assert net.nodes["g"].gate_type is GateType.NOT

    def test_demorgan_on_or(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", GateType.OR, ["a", "b"])
        net.add_output("g")
        ref = net.copy()
        demorgan_node(net, "g")
        assert networks_equivalent(ref, net)

    def test_demorgan_rejects_not(self, simple_and_or):
        with pytest.raises(NetworkError):
            demorgan_node(simple_and_or, "y")


class TestCleanupPipeline:
    def test_cleanup_equivalence(self, fig3):
        out = cleanup(to_aoi(fig3))
        assert networks_equivalent(fig3, out)

    def test_cleanup_removes_buffers(self, fig3):
        out = cleanup(to_aoi(fig3))
        assert all(g.gate_type is not GateType.BUF for g in out.gates)


class TestHistogram:
    def test_count_gate_types(self, simple_and_or):
        hist = count_gate_types(simple_and_or)
        assert hist[GateType.AND] == 1
        assert hist[GateType.OR] == 1
        assert hist[GateType.NOT] == 1


class TestEquivalenceChecker:
    def test_detects_difference(self):
        a = _xor_net()
        b = LogicNetwork("or")
        b.add_input("a")
        b.add_input("b")
        b.add_gate("x", GateType.OR, ["a", "b"])
        b.add_output("x")
        assert not networks_equivalent(a, b)

    def test_requires_same_interface(self):
        a = _xor_net()
        b = LogicNetwork("m")
        b.add_input("a")
        b.add_output("x", "a")
        assert not networks_equivalent(a, b)

    def test_random_sampling_path(self, medium_random):
        # 16 inputs exceeds the exhaustive limit, exercising sampling.
        assert networks_equivalent(
            medium_random, medium_random.copy(), exhaustive_limit=8
        )


class TestCleanupCopiesOnce:
    """``cleanup`` copies once and runs every pass in place on the copy;
    it must equal the composed passes, each of which copies."""

    def _networks(self):
        for seed in range(10):
            yield to_aoi(random_mixed_network(seed, n_gates=40, n_latches=seed % 3))
        for index in range(20):
            yield to_aoi(parse_blif(small_pool_blif(index)))

    def test_same_fingerprint_as_composed_passes(self):
        folded = 0
        for net in self._networks():
            before = net.fingerprint()
            out = cleanup(net)
            assert out.fingerprint() == collapse_buffers(propagate_constants(net)).fingerprint()
            assert net.fingerprint() == before
            assert not any(out.nodes[name] is net.nodes.get(name) for name in out.nodes)
            folded += len(out.nodes) < len(net.nodes)
        assert folded > 10

"""Unit tests for repro.network.netlist."""

import pytest

from repro.errors import NetworkError
from repro.network.netlist import (
    GateType,
    LogicNetwork,
    Node,
    SopCover,
)

from helpers import all_input_vectors


class TestGateType:
    def test_sources_have_no_fanin(self):
        assert GateType.INPUT.is_source
        assert GateType.CONST0.is_source
        assert GateType.CONST1.is_source
        assert not GateType.AND.is_source

    def test_monotone_types(self):
        assert GateType.AND.is_monotone
        assert GateType.OR.is_monotone
        assert GateType.BUF.is_monotone
        assert not GateType.NOT.is_monotone
        assert not GateType.XOR.is_monotone

    def test_duals(self):
        assert GateType.AND.dual is GateType.OR
        assert GateType.OR.dual is GateType.AND
        assert GateType.NAND.dual is GateType.NOR
        assert GateType.NOR.dual is GateType.NAND
        assert GateType.BUF.dual is GateType.BUF
        assert GateType.CONST0.dual is GateType.CONST1

    def test_dual_of_xor_raises(self):
        with pytest.raises(NetworkError):
            GateType.XOR.dual

    def test_dual_of_every_type(self):
        pairs = [
            (GateType.AND, GateType.OR),
            (GateType.NAND, GateType.NOR),
            (GateType.BUF, GateType.BUF),
            (GateType.CONST0, GateType.CONST1),
        ]
        duals = {a: b for a, b in pairs}
        duals.update({b: a for a, b in pairs})
        assert len(duals) == 7
        for gate_type in GateType:
            if gate_type in duals:
                assert gate_type.dual is duals[gate_type]
            else:
                with pytest.raises(NetworkError, match="has no DeMorgan dual"):
                    gate_type.dual


class TestSopCover:
    def test_onset_evaluation(self):
        cover = SopCover(cubes=["11", "0-"], output_value="1")
        assert cover.evaluate([True, True])
        assert cover.evaluate([False, False])
        assert cover.evaluate([False, True])
        assert not cover.evaluate([True, False])

    def test_offset_evaluation(self):
        cover = SopCover(cubes=["11"], output_value="0")
        assert not cover.evaluate([True, True])
        assert cover.evaluate([False, True])

    def test_dont_care_matches_both(self):
        cover = SopCover(cubes=["-1"], output_value="1")
        assert cover.evaluate([False, True])
        assert cover.evaluate([True, True])
        assert not cover.evaluate([True, False])

    def test_validate_rejects_wrong_width(self):
        cover = SopCover(cubes=["1"], output_value="1")
        with pytest.raises(NetworkError):
            cover.validate(2)

    def test_validate_rejects_bad_literal(self):
        cover = SopCover(cubes=["1x"], output_value="1")
        with pytest.raises(NetworkError):
            cover.validate(2)

    def test_validate_rejects_bad_output_value(self):
        cover = SopCover(cubes=["1"], output_value="2")
        with pytest.raises(NetworkError):
            cover.validate(1)


class TestNodeEvaluate:
    @pytest.mark.parametrize(
        "gate_type,values,expected",
        [
            (GateType.AND, [True, True], True),
            (GateType.AND, [True, False], False),
            (GateType.OR, [False, False], False),
            (GateType.OR, [True, False], True),
            (GateType.NAND, [True, True], False),
            (GateType.NOR, [False, False], True),
            (GateType.XOR, [True, False], True),
            (GateType.XOR, [True, True], False),
            (GateType.XNOR, [True, True], True),
            (GateType.NOT, [True], False),
            (GateType.BUF, [True], True),
        ],
    )
    def test_primitive_gates(self, gate_type, values, expected):
        node = Node(name="n", gate_type=gate_type, fanins=["a"] * len(values))
        assert node.evaluate(values) is expected

    def test_mux(self):
        node = Node(name="m", gate_type=GateType.MUX, fanins=["s", "d0", "d1"])
        assert node.evaluate([False, True, False]) is True  # sel=0 -> d0
        assert node.evaluate([True, True, False]) is False  # sel=1 -> d1

    def test_constants(self):
        assert Node(name="c0", gate_type=GateType.CONST0).evaluate([]) is False
        assert Node(name="c1", gate_type=GateType.CONST1).evaluate([]) is True

    def test_xor_many_inputs_is_parity(self):
        node = Node(name="x", gate_type=GateType.XOR, fanins=["a", "b", "c"])
        assert node.evaluate([True, True, True]) is True
        assert node.evaluate([True, True, False]) is False

    def test_sop_without_cover_raises(self):
        node = Node(name="s", gate_type=GateType.SOP, fanins=["a"])
        with pytest.raises(NetworkError):
            node.evaluate([True])


class TestConstruction:
    def test_duplicate_name_rejected(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_input("a")

    def test_not_requires_single_fanin(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        with pytest.raises(NetworkError):
            net.add_gate("n", GateType.NOT, ["a", "b"])

    def test_mux_requires_three_fanins(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_gate("m", GateType.MUX, ["a"])

    def test_sop_requires_cover(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_gate("s", GateType.SOP, ["a"])

    def test_source_cannot_have_fanins(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_gate("c", GateType.CONST0, ["a"])

    def test_latch_init_value_validation(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_latch("l", "a", init_value=7)

    def test_and_needs_at_least_one_fanin(self):
        net = LogicNetwork()
        with pytest.raises(NetworkError):
            net.add_gate("g", GateType.AND, [])

    def test_output_defaults_to_own_name(self, simple_and_or):
        assert simple_and_or.driver_of("x") == "x"

    def test_output_with_explicit_driver(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_output("po", "a")
        assert net.driver_of("po") == "a"

    def test_driver_of_unknown_output_raises(self, simple_and_or):
        with pytest.raises(NetworkError):
            simple_and_or.driver_of("zzz")


class TestValidation:
    def test_unknown_fanin_detected(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_gate("g", GateType.AND, ["a", "a"])
        net.nodes["g"].fanins = ["a", "ghost"]
        with pytest.raises(NetworkError):
            net.validate()

    def test_unknown_output_driver_detected(self):
        net = LogicNetwork()
        net.add_input("a")
        net.outputs.append(("po", "ghost"))
        with pytest.raises(NetworkError):
            net.validate()

    def test_combinational_cycle_detected(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_gate("g1", GateType.AND, ["a", "g2"]) if "g2" in net.nodes else None
        net.add_gate("g2", GateType.OR, ["a", "a"])
        net.add_gate("g1", GateType.AND, ["a", "g2"])
        net.nodes["g2"].fanins = ["a", "g1"]
        with pytest.raises(NetworkError):
            net.validate()

    def test_latch_breaks_cycle(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_latch("l", "g")
        net.add_gate("g", GateType.AND, ["a", "l"])
        net.validate()  # no exception: the loop goes through the latch

    def test_declared_input_with_wrong_type(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_gate("g", GateType.BUF, ["a"])
        net.inputs.append("g")
        with pytest.raises(NetworkError):
            net.validate()


class TestEvaluate:
    def test_simple_truth_table(self, simple_and_or):
        for vec in all_input_vectors(simple_and_or.inputs):
            out = simple_and_or.evaluate_outputs(vec)
            assert out["x"] == ((vec["a"] and vec["b"]) or vec["c"])
            assert out["y"] == (not (vec["a"] and vec["b"]))

    def test_missing_input_raises(self, simple_and_or):
        with pytest.raises(NetworkError):
            simple_and_or.evaluate({"a": True})

    def test_latch_uses_init_value_by_default(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_latch("l", "a", init_value=1)
        net.add_gate("g", GateType.AND, ["a", "l"])
        net.add_output("g")
        out = net.evaluate({"a": True})
        assert out["g"] is True  # latch reads as 1

    def test_latch_state_override(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_latch("l", "a", init_value=1)
        net.add_gate("g", GateType.AND, ["a", "l"])
        net.add_output("g")
        out = net.evaluate({"a": True}, state={"l": False})
        assert out["g"] is False

    def test_next_state_extraction(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_latch("l", "a", init_value=0)
        values = net.evaluate({"a": True})
        assert net.next_state(values) == {"l": True}

    def test_constants_evaluate(self):
        net = LogicNetwork()
        net.add_gate("c0", GateType.CONST0, [])
        net.add_gate("c1", GateType.CONST1, [])
        net.add_gate("g", GateType.OR, ["c0", "c1"])
        net.add_output("g")
        assert net.evaluate_outputs({}) == {"g": True}


class TestTopology:
    def test_topological_order_respects_fanins(self, simple_and_or):
        order = simple_and_or.topological_order()
        pos = {name: i for i, name in enumerate(order)}
        for node in simple_and_or.nodes.values():
            for fi in node.fanins:
                assert pos[fi] < pos[node.name]

    def test_topological_order_covers_all_nodes(self, medium_random):
        order = medium_random.topological_order()
        assert sorted(order) == sorted(medium_random.nodes)

    def test_latches_are_topological_sources(self, fig7):
        order = fig7.topological_order()
        pos = {name: i for i, name in enumerate(order)}
        # Latch output l1 is read by g0; the latch does not depend on
        # its data input in the combinational view.
        assert pos["l1"] < pos["g0"]


class TestEditing:
    def test_fresh_name_avoids_collisions(self, simple_and_or):
        name1 = simple_and_or.fresh_name("ab")
        assert name1 != "ab"
        assert name1 not in simple_and_or.nodes

    def test_copy_is_deep(self, simple_and_or):
        clone = simple_and_or.copy()
        clone.nodes["x"].fanins[0] = "c"
        assert simple_and_or.nodes["x"].fanins[0] == "ab"
        clone.add_input("zz")
        assert "zz" not in simple_and_or.nodes


class TestStats:
    def test_stats_counts(self, simple_and_or):
        s = simple_and_or.stats()
        assert s["inputs"] == 3
        assert s["outputs"] == 2
        assert s["gates"] == 3
        assert s["inverters"] == 1
        assert s["latches"] == 0

    def test_gates_excludes_sources_and_latches(self, fig7):
        names = {g.name for g in fig7.gates}
        assert "l0" not in names
        assert "a" not in names
        assert "g0" in names

    def test_sources_includes_latches(self, fig7):
        sources = set(fig7.sources())
        assert {"a", "b", "c", "l0", "l1"} <= sources

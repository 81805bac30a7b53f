"""Edge cases and failure injection across modules.

These tests pin down behaviour at the boundaries: degenerate circuits
(constant outputs, wire-only outputs, empty covers), resource-limit
fallbacks, and inputs designed to stress unusual code paths.
"""

import pytest

from repro.errors import BddError, PowerError
from repro.bdd.builder import build_node_bdds
from repro.bdd.manager import ONE, ZERO, BddManager
from repro.core.flow import run_flow
from repro.core.min_area import minimize_area
from repro.network.duplication import phase_transform
from repro.network.netlist import GateType, LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.optimize import make_strategy
from repro.phase import Phase, PhaseAssignment
from repro.power.estimator import DominoPowerModel, PhaseEvaluator, estimate_power
from repro.power.simulator import simulate_power


def _const_output_net():
    net = LogicNetwork("const_po")
    net.add_input("a")
    net.add_gate("c1", GateType.CONST1, [])
    net.add_gate("g", GateType.AND, ["a", "a"])
    net.add_output("k", "c1")
    net.add_output("g")
    return net


def _wire_output_net():
    net = LogicNetwork("wire_po")
    net.add_input("a")
    net.add_input("b")
    net.add_gate("g", GateType.OR, ["a", "b"])
    net.add_output("w", "a")  # PO directly on a PI
    net.add_output("g")
    return net


class TestDegenerateOutputs:
    def test_constant_output_through_flow(self):
        result = run_flow(_const_output_net(), n_vectors=256, seed=0)
        assert result.ma.size >= 1

    def test_wire_output_through_flow(self):
        result = run_flow(_wire_output_net(), n_vectors=256, seed=0)
        assert result.ma.size >= 1

    def test_constant_output_estimator(self):
        net = _const_output_net()
        ev = PhaseEvaluator(net, method="bdd")
        for bits in range(4):
            a = PhaseAssignment.from_bits(net.output_names(), bits)
            b = ev.breakdown(a)
            direct = estimate_power(net, a, method="bdd")
            assert b.total == pytest.approx(direct.total)

    def test_wire_output_negative_phase_simulation(self):
        net = _wire_output_net()
        a = PhaseAssignment({"w": Phase.NEGATIVE, "g": Phase.POSITIVE})
        impl = phase_transform(net, a)
        sim = simulate_power(impl, n_vectors=512, seed=0)
        assert sim.energy_per_cycle > 0

    def test_all_constant_circuit(self):
        net = LogicNetwork("allconst")
        net.add_gate("c0", GateType.CONST0, [])
        net.add_output("z", "c0")
        ev = PhaseEvaluator(net, method="bdd")
        a = PhaseAssignment.all_positive(["z"])
        assert ev.power(a) == pytest.approx(0.0)
        result = make_strategy("exhaustive").optimize(ev)
        assert result.power <= ev.power(a) + 1e-12

    def test_output_listed_twice(self):
        net = LogicNetwork("dup_po")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", GateType.AND, ["a", "b"])
        net.add_output("p1", "g")
        net.add_output("p2", "g")
        ev = PhaseEvaluator(net, method="bdd")
        # Same driver, conflicting phases: both polarities materialise.
        conflicting = PhaseAssignment({"p1": Phase.POSITIVE, "p2": Phase.NEGATIVE})
        aligned = PhaseAssignment.all_positive(["p1", "p2"])
        assert ev.area(conflicting) > ev.area(aligned)


class TestResourceLimits:
    def test_flow_with_monte_carlo_fallback(self, medium_random):
        # Force the BDD path to fail so the flow runs on MC estimates.
        result = run_flow(medium_random, n_vectors=512, seed=0, power_method="auto")
        assert result.probability_method in ("bdd", "monte-carlo")

    def test_evaluator_explicit_monte_carlo(self, small_random):
        ev = PhaseEvaluator(small_random, method="monte-carlo", n_vectors=2048)
        a = PhaseAssignment.all_positive(small_random.output_names())
        assert ev.power(a) > 0
        assert ev.probability_result.method == "monte-carlo"

    def test_estimator_mc_close_to_bdd(self, small_random):
        a = PhaseAssignment.random(small_random.output_names(), seed=3)
        bdd_ev = PhaseEvaluator(small_random, method="bdd")
        mc_ev = PhaseEvaluator(small_random, method="monte-carlo", n_vectors=30000)
        assert mc_ev.power(a) == pytest.approx(bdd_ev.power(a), rel=0.05)

    def test_bdd_manager_budget_exact_boundary(self):
        mgr = BddManager(["a", "b"], max_nodes=3)
        mgr.var("a")  # node 3 total (2 terminals + 1)
        with pytest.raises(BddError):
            mgr.var("b")
            mgr.apply_xor(mgr.var("a"), mgr.var("b"))

    def test_minimize_area_single_output(self):
        net = LogicNetwork("one")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", GateType.NOR, ["a", "b"])
        net.add_output("g")
        aoi = cleanup(to_aoi(net))
        ev = PhaseEvaluator(aoi, method="bdd")
        result = minimize_area(ev)
        # NOR = NOT(OR): the negative phase absorbs the inverter.
        assert result.assignment["g"] is Phase.NEGATIVE
        assert result.area == 2  # one OR gate + one boundary inverter


class TestModelEdgeCases:
    def test_zero_capacitance_model(self, fig3_aoi):
        model = DominoPowerModel(gate_cap=0.0, inverter_cap=0.0)
        ev = PhaseEvaluator(fig3_aoi, model=model, method="bdd")
        a = PhaseAssignment.all_positive(fig3_aoi.output_names())
        assert ev.power(a) == pytest.approx(0.0)

    def test_extreme_input_probabilities(self, fig3_aoi):
        for p in (0.0, 1.0):
            ev = PhaseEvaluator(
                fig3_aoi, input_probs={pi: p for pi in fig3_aoi.inputs}, method="bdd"
            )
            a = PhaseAssignment.all_positive(fig3_aoi.output_names())
            b = ev.breakdown(a)
            # Deterministic inputs: static input inverters never toggle.
            assert b.input_inverters == pytest.approx(0.0)

    def test_simulator_single_vector(self, fig3_aoi):
        a = PhaseAssignment.all_positive(fig3_aoi.output_names())
        impl = phase_transform(fig3_aoi, a)
        sim = simulate_power(impl, n_vectors=1, seed=0)
        # One vector: no consecutive pairs, input inverter energy is 0.
        assert sim.input_inverter_energy == 0.0

    def test_estimate_power_without_boundary(self, fig3_aoi):
        model = DominoPowerModel(include_boundary_inverters=False)
        a = PhaseAssignment({"f": Phase.NEGATIVE, "g": Phase.NEGATIVE})
        direct = estimate_power(fig3_aoi, a, model=model, method="bdd")
        assert direct.input_inverters == 0.0
        assert direct.output_inverters == 0.0


class TestBddDegenerate:
    def test_constant_only_network(self):
        net = LogicNetwork("c")
        net.add_gate("c1", GateType.CONST1, [])
        net.add_output("k", "c1")
        bdds = build_node_bdds(net)
        assert bdds.bdd_of("c1") == ONE

    def test_single_variable_network(self):
        net = LogicNetwork("v")
        net.add_input("a")
        net.add_output("w", "a")
        bdds = build_node_bdds(net)
        assert bdds.probability("a", {"a": 0.3}) == pytest.approx(0.3)

    def test_empty_variable_order_manager(self):
        mgr = BddManager([])
        assert mgr.node_count == 0
        assert mgr.probability(ONE, {}) == 1.0

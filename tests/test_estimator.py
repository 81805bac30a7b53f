"""Unit tests for the fast phase-aware power estimator."""

import pytest

from repro.errors import PowerError
from repro.network.duplication import Polarity, phase_transform
from repro.network.netlist import GateType, LogicNetwork
from repro.phase import Phase, PhaseAssignment, enumerate_assignments
from repro.power.estimator import (
    DominoPowerModel,
    PhaseEvaluator,
    PolaritySpace,
    estimate_power,
)

from helpers import cone_masks


class TestPolaritySpace:
    def test_rejects_non_aoi(self):
        net = LogicNetwork("m")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("x", GateType.XOR, ["a", "b"])
        net.add_output("x")
        with pytest.raises(PowerError):
            PolaritySpace(net)

    def test_universe_size(self, fig3_aoi):
        space = PolaritySpace(fig3_aoi)
        # 3 AND/OR nodes x 2 polarities.
        assert space.n_slots == 6

    def test_not_chain_resolution(self, fig3_aoi):
        space = PolaritySpace(fig3_aoi)
        # f's driver is the inverter f_inv; in POS polarity it resolves
        # to (n_x, NEG).
        ref = space.resolve("f_inv", Polarity.POS)
        assert ref.kind == "gate"
        assert ref.key == ("n_x", Polarity.NEG)

    def test_cone_masks_match_transform(self, fig3_aoi):
        space = PolaritySpace(fig3_aoi)
        for bits in range(4):
            a = PhaseAssignment.from_bits(fig3_aoi.output_names(), bits)
            impl = phase_transform(fig3_aoi, a)
            union = set()
            invs = set()
            for po, driver in fig3_aoi.outputs:
                pol = Polarity.POS if a[po] is Phase.POSITIVE else Polarity.NEG
                gmask, imask = cone_masks(space, space.resolve(driver, pol))
                for key, idx in space.gate_index.items():
                    if gmask[idx]:
                        union.add(key)
                for s, si in space.source_index.items():
                    if imask[si]:
                        invs.add(s)
            assert union == set(impl.gates)
            assert invs == impl.input_inverters


class TestPhaseEvaluatorAgainstDirect:
    @pytest.mark.parametrize("bits", range(4))
    def test_matches_estimate_power_fig3(self, fig3_aoi, bits):
        model = DominoPowerModel(clock_cap_per_gate=0.2, cap_per_fanin=0.1)
        input_probs = {pi: 0.9 for pi in fig3_aoi.inputs}
        ev = PhaseEvaluator(fig3_aoi, input_probs=input_probs, model=model, method="bdd")
        a = PhaseAssignment.from_bits(fig3_aoi.output_names(), bits)
        fast = ev.breakdown(a)
        direct = estimate_power(
            fig3_aoi, a, input_probs=input_probs, model=model, method="bdd"
        )
        assert fast.total == pytest.approx(direct.total)
        assert fast.n_gates == direct.n_gates
        assert fast.n_input_inverters == direct.n_input_inverters
        assert fast.n_output_inverters == direct.n_output_inverters

    def test_matches_on_random_network(self, small_random):
        model = DominoPowerModel()
        ev = PhaseEvaluator(small_random, model=model, method="bdd")
        for seed in range(5):
            a = PhaseAssignment.random(small_random.output_names(), seed=seed)
            fast = ev.power(a)
            direct = estimate_power(small_random, a, model=model, method="bdd").total
            assert fast == pytest.approx(direct)

    def test_area_matches_transform(self, small_random):
        ev = PhaseEvaluator(small_random, method="bdd")
        for seed in range(5):
            a = PhaseAssignment.random(small_random.output_names(), seed=seed)
            impl = phase_transform(small_random, a)
            expected = (
                impl.n_gates + len(impl.input_inverters) + len(impl.output_inverters)
            )
            assert ev.area(a) == expected


class TestFigure5Numbers:
    """The exact arithmetic of the paper's Figure 5 (inputs at 0.9)."""

    @pytest.fixture
    def ev(self, fig3_aoi):
        model = DominoPowerModel(gate_cap=1.0, inverter_cap=1.0)
        return PhaseEvaluator(
            fig3_aoi, input_probs={pi: 0.9 for pi in fig3_aoi.inputs},
            model=model, method="bdd",
        )

    def test_min_area_realisation_switching(self, ev):
        a = PhaseAssignment({"f": Phase.NEGATIVE, "g": Phase.POSITIVE})
        b = ev.breakdown(a)
        # Positive cone: .99 + .81 + .9981 = 2.7981; output inverter .9981.
        assert b.domino == pytest.approx(2.7981, abs=1e-4)
        assert b.output_inverters == pytest.approx(0.9981, abs=1e-4)
        assert b.input_inverters == 0.0

    def test_low_power_realisation_switching(self, ev):
        a = PhaseAssignment({"f": Phase.POSITIVE, "g": Phase.NEGATIVE})
        b = ev.breakdown(a)
        # Negative cone: .01 + .19 + .0019 = .2019; 4 input inverters at
        # 2*.9*.1 = .18 each; output inverter .0019.
        assert b.domino == pytest.approx(0.2019, abs=1e-4)
        assert b.input_inverters == pytest.approx(0.72, abs=1e-6)
        assert b.output_inverters == pytest.approx(0.0019, abs=1e-4)

    def test_reduction_is_about_75_percent(self, ev):
        ma = ev.power(PhaseAssignment({"f": Phase.NEGATIVE, "g": Phase.POSITIVE}))
        mp = ev.power(PhaseAssignment({"f": Phase.POSITIVE, "g": Phase.NEGATIVE}))
        reduction = 100.0 * (ma - mp) / ma
        assert 70.0 < reduction < 80.0


class TestModelKnobs:
    def test_clock_load_scales_with_gates(self, fig3_aoi):
        base = PhaseEvaluator(
            fig3_aoi, model=DominoPowerModel(clock_cap_per_gate=0.0), method="bdd"
        )
        clocked = PhaseEvaluator(
            fig3_aoi, model=DominoPowerModel(clock_cap_per_gate=1.0), method="bdd"
        )
        a = PhaseAssignment.all_positive(fig3_aoi.output_names())
        diff = clocked.power(a) - base.power(a)
        assert diff == pytest.approx(base.breakdown(a).n_gates)

    def test_boundary_inverters_can_be_excluded(self, fig3_aoi):
        model = DominoPowerModel(include_boundary_inverters=False)
        ev = PhaseEvaluator(
            fig3_aoi, input_probs={pi: 0.9 for pi in fig3_aoi.inputs},
            model=model, method="bdd",
        )
        b = ev.breakdown(PhaseAssignment({"f": Phase.POSITIVE, "g": Phase.NEGATIVE}))
        assert b.input_inverters == 0.0
        assert b.output_inverters == 0.0
        assert b.n_output_inverters == 1  # still counted structurally

    def test_and_series_penalty(self):
        model = DominoPowerModel(and_series_penalty=0.5)
        assert model.gate_factor(GateType.AND, 3) == pytest.approx(1.0 * (1 + 0.5 * 2))
        assert model.gate_factor(GateType.OR, 3) == pytest.approx(1.0)

    def test_gate_factor_with_fanin_cap(self):
        model = DominoPowerModel(cap_per_fanin=0.2)
        assert model.gate_factor(GateType.OR, 4) == pytest.approx(1.8)


class TestConeQueries:
    def test_cone_size_phase_invariant(self, small_random):
        ev = PhaseEvaluator(small_random, method="bdd")
        for po in ev.outputs:
            assert ev.cone_size(po, Phase.POSITIVE) == ev.cone_size(po, Phase.NEGATIVE)

    def test_average_cone_probability_flips(self, small_random):
        ev = PhaseEvaluator(small_random, method="bdd")
        a = PhaseAssignment.all_positive(small_random.output_names())
        po = ev.outputs[0]
        avg_pos = ev.average_cone_probability(a, po)
        avg_neg = ev.average_cone_probability(a.flipped(po), po)
        assert avg_pos + avg_neg == pytest.approx(1.0)

    def test_breakdown_area_cells(self, fig3_aoi):
        ev = PhaseEvaluator(fig3_aoi, method="bdd")
        a = PhaseAssignment({"f": Phase.NEGATIVE, "g": Phase.POSITIVE})
        b = ev.breakdown(a)
        assert b.area_cells == ev.area(a)

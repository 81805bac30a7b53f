"""Tests for unit-delay glitch analysis (Property 2.2)."""

import dataclasses
import random

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.bench.mcnc import TABLE1_SUITE
from repro.errors import PowerError
from repro.network.duplication import phase_transform
from repro.network.netlist import GateType, LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.phase import PhaseAssignment
from repro.power.glitch import domino_glitch_check, unit_delay_glitch_report

from helpers import (
    random_mixed_network,
    reference_domino_glitch_check,
    reference_unit_delay_glitch_report,
)


def _glitchy_net():
    """Classic glitch generator: f = a XOR path with unbalanced delays.

    f = AND(a, NOT(a)) settles at 0, but under unit delay a rising 'a'
    makes the AND briefly see (1, 1) -> a spurious pulse.
    """
    net = LogicNetwork("glitchy")
    net.add_input("a")
    net.add_input("b")
    net.add_gate("n", GateType.NOT, ["a"])
    net.add_gate("slow", GateType.AND, ["n", "b"])
    net.add_gate("f", GateType.OR, ["slow", "a"])
    net.add_gate("haz", GateType.AND, ["a", "n"])
    net.add_output("f")
    net.add_output("haz")
    return net


class TestStaticGlitches:
    def test_glitches_detected(self):
        report = unit_delay_glitch_report(_glitchy_net(), n_cycles=2048, seed=0)
        assert report.unit_delay_transitions > report.zero_delay_transitions
        assert report.glitch_fraction > 0.0

    def test_hazard_node_identified(self):
        report = unit_delay_glitch_report(_glitchy_net(), n_cycles=2048, seed=0)
        # 'haz' = a AND NOT(a): every zero-delay transition is a glitch.
        assert report.per_node_glitches["haz"] > 0.05

    def test_balanced_tree_has_no_glitches(self):
        # A single-level network cannot glitch under unit delay.
        net = LogicNetwork("flat")
        for pi in ("a", "b", "c"):
            net.add_input(pi)
        net.add_gate("g1", GateType.AND, ["a", "b"])
        net.add_gate("g2", GateType.OR, ["b", "c"])
        net.add_output("g1")
        net.add_output("g2")
        report = unit_delay_glitch_report(net, n_cycles=2048, seed=1)
        assert report.glitch_transitions == pytest.approx(0.0)

    def test_sequential_rejected(self, fig7):
        with pytest.raises(PowerError):
            unit_delay_glitch_report(fig7)

    def test_too_few_cycles_rejected(self, simple_and_or):
        with pytest.raises(PowerError):
            unit_delay_glitch_report(simple_and_or, n_cycles=1)

    def test_deterministic(self, small_random):
        r1 = unit_delay_glitch_report(small_random, n_cycles=256, seed=7)
        r2 = unit_delay_glitch_report(small_random, n_cycles=256, seed=7)
        assert r1.unit_delay_transitions == r2.unit_delay_transitions

    def test_random_network_glitches_exist(self, medium_random):
        # Multi-level reconvergent logic virtually always glitches.
        report = unit_delay_glitch_report(medium_random, n_cycles=1024, seed=3)
        assert report.glitch_transitions > 0.0


def _assert_same_check(impl, **kwargs):
    result = domino_glitch_check(impl, **kwargs)
    assert result == reference_domino_glitch_check(impl, **kwargs)
    assert result is True


class TestDominoNoGlitch:
    """Property 2.2: domino blocks evaluate monotonically."""

    @pytest.mark.parametrize("bits", range(4))
    def test_fig3_implementations_monotone(self, fig3_aoi, bits):
        a = PhaseAssignment.from_bits(fig3_aoi.output_names(), bits)
        impl = phase_transform(fig3_aoi, a)
        _assert_same_check(impl, n_cycles=256, seed=bits)

    def test_random_network_monotone(self, small_random):
        for seed in range(3):
            a = PhaseAssignment.random(small_random.output_names(), seed=seed)
            impl = phase_transform(small_random, a)
            _assert_same_check(impl, n_cycles=128, seed=seed)

    def test_skewed_inputs_and_constants(self):
        net = LogicNetwork("consts")
        for pi in ("a", "b", "c"):
            net.add_input(pi)
        net.add_gate("one", GateType.CONST1, [])
        net.add_gate("na", GateType.NOT, ["a"])
        net.add_gate("g", GateType.AND, ["na", "b", "one"])
        net.add_gate("h", GateType.OR, ["g", "c"])
        net.add_output("h")
        net.add_output("g")
        for bits in range(4):
            impl = phase_transform(net, PhaseAssignment.from_bits(net.output_names(), bits))
            probs = {"a": 0.2, "b": 0.7, "c": 0.4}
            _assert_same_check(impl, input_probs=probs, n_cycles=77, seed=bits)

    def test_non_monotone_gate_fails(self, fig3_aoi):
        """A block gate that can fall within a cycle (a NAND fed by a
        domino gate, which no transform emits) breaks the check."""
        impl = phase_transform(fig3_aoi, PhaseAssignment.all_positive(fig3_aoi.output_names()))
        key, gate = next(
            (key, gate)
            for key, gate in impl.gates.items()
            if any(ref.kind == "gate" for ref in gate.fanins)
        )
        impl.gates[key] = dataclasses.replace(gate, gate_type=GateType.NAND)
        assert not domino_glitch_check(impl, n_cycles=256, seed=0)

    def test_glitchy_source_becomes_glitch_free_in_domino(self):
        """The same function that glitches in static CMOS is monotone as
        a domino block — the paper's core physical argument."""
        aoi = cleanup(to_aoi(_glitchy_net()))
        static_report = unit_delay_glitch_report(aoi, n_cycles=1024, seed=0)
        assert static_report.glitch_transitions > 0
        impl = phase_transform(aoi, PhaseAssignment.all_positive(aoi.output_names()))
        _assert_same_check(impl, n_cycles=1024, seed=0)


def _skewed_probs(network, seed):
    rng = random.Random(seed)
    return {pi: rng.uniform(0.05, 0.95) for pi in network.inputs}


def _assert_same_report(network, **kwargs):
    report = unit_delay_glitch_report(network, **kwargs)
    expected = reference_unit_delay_glitch_report(network, **kwargs)
    assert report == expected
    assert list(report.per_node_glitches) == list(expected.per_node_glitches)


class TestReportAgainstReference:
    """The word frames against the bool-array body they replaced, with
    ``==`` on every field, the per-node dict and its order."""

    @pytest.mark.parametrize("n_cycles", (2, 3, 64, 65, 1000))
    def test_generated_control_networks(self, n_cycles):
        for seed in range(4):
            config = GeneratorConfig(
                n_inputs=6 + seed, n_outputs=2 + seed, n_gates=20 + 10 * seed, seed=seed
            )
            net = random_control_network(f"ctl{seed}", config)
            _assert_same_report(net, n_cycles=n_cycles, seed=seed)
            _assert_same_report(
                net, input_probs=_skewed_probs(net, seed), n_cycles=n_cycles, seed=seed
            )

    @pytest.mark.parametrize("spec", TABLE1_SUITE, ids=lambda spec: spec.name)
    def test_suite_circuits(self, spec):
        aoi = cleanup(to_aoi(spec.build()))
        _assert_same_report(aoi, n_cycles=129, seed=1)

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_networks_with_constants(self, seed):
        net = random_mixed_network(seed, n_inputs=5 + seed % 4, n_gates=40)
        for n_cycles in (2, 65, 500):
            _assert_same_report(net, n_cycles=n_cycles, seed=seed)
            _assert_same_report(
                net, input_probs=_skewed_probs(net, seed), n_cycles=n_cycles, seed=seed
            )

    def test_constant_fanin_holds_its_value(self):
        net = LogicNetwork("const_fanin")
        net.add_input("a")
        net.add_gate("one", GateType.CONST1, [])
        net.add_gate("g", GateType.AND, ["a", "one"])
        net.add_output("g")
        report = unit_delay_glitch_report(net, n_cycles=256, seed=0)
        assert report == reference_unit_delay_glitch_report(net, n_cycles=256, seed=0)
        assert report.zero_delay_transitions > 0
        assert report.per_node_glitches == {"g": 0.0}

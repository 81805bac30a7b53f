"""Unit tests for the Monte-Carlo power simulator (PowerMill substitute)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.mcnc import spec_by_name
from repro.network.duplication import implementation_network, phase_transform
from repro.network.netlist import GateType, LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.phase import Phase, PhaseAssignment
from repro.power.estimator import DominoPowerModel, PhaseEvaluator
from repro.power.simulator import (
    SequentialPowerSimulator,
    measure_switching_counts,
    simulate_power,
)
from repro.power.probability import pack_words, random_source_batch, simulate_words

from helpers import reference_simulate_power


class TestSimulateAgainstEstimator:
    """Zero-delay MC must converge to the analytic estimate (Property 2.2)."""

    @pytest.mark.parametrize("bits", range(4))
    def test_fig3_convergence(self, fig3_aoi, bits):
        input_probs = {pi: 0.9 for pi in fig3_aoi.inputs}
        model = DominoPowerModel()
        ev = PhaseEvaluator(fig3_aoi, input_probs=input_probs, model=model, method="bdd")
        a = PhaseAssignment.from_bits(fig3_aoi.output_names(), bits)
        impl = phase_transform(fig3_aoi, a)
        sim = simulate_power(impl, input_probs=input_probs, model=model,
                             n_vectors=60000, seed=3)
        est = ev.breakdown(a)
        assert sim.domino_energy == pytest.approx(est.domino, rel=0.03)
        assert sim.energy_per_cycle == pytest.approx(est.total, rel=0.05)

    def test_random_network_convergence(self, small_random):
        model = DominoPowerModel(clock_cap_per_gate=0.1)
        ev = PhaseEvaluator(small_random, model=model, method="bdd")
        a = PhaseAssignment.random(small_random.output_names(), seed=5)
        impl = phase_transform(small_random, a)
        sim = simulate_power(impl, model=model, n_vectors=40000, seed=7)
        est = ev.breakdown(a)
        assert sim.energy_per_cycle == pytest.approx(est.total, rel=0.05)


class TestSimulatorMechanics:
    def test_deterministic_with_seed(self, fig3_aoi):
        a = PhaseAssignment.all_positive(fig3_aoi.output_names())
        impl = phase_transform(fig3_aoi, a)
        s1 = simulate_power(impl, n_vectors=1024, seed=11)
        s2 = simulate_power(impl, n_vectors=1024, seed=11)
        assert s1.energy_per_cycle == s2.energy_per_cycle

    def test_current_scale(self, fig3_aoi):
        a = PhaseAssignment.all_positive(fig3_aoi.output_names())
        impl = phase_transform(fig3_aoi, a)
        model = DominoPowerModel(current_scale=0.5)
        sim = simulate_power(impl, model=model, n_vectors=256, seed=0)
        assert sim.current_ma == pytest.approx(0.5 * sim.energy_per_cycle)

    def test_batch_evaluation_matches_scalar(self, small_random):
        a = PhaseAssignment.random(small_random.output_names(), seed=2)
        impl = phase_transform(small_random, a)
        batch = random_source_batch(small_random, {pi: 0.5 for pi in small_random.inputs}, 32, seed=4)
        words = simulate_words(implementation_network(impl), pack_words(batch), 32)
        for k in range(32):
            vec = {pi: bool(batch[pi][k]) for pi in small_random.inputs}
            ref = impl.evaluate_gates(vec)
            for gate in impl.gates.values():
                assert bool(words[gate.instance_name] >> k & 1) == ref[gate.key]

    def test_measure_switching_counts_keys(self, fig3_aoi):
        a = PhaseAssignment({"f": Phase.POSITIVE, "g": Phase.NEGATIVE})
        impl = phase_transform(fig3_aoi, a)
        counts = measure_switching_counts(
            impl, input_probs={pi: 0.9 for pi in fig3_aoi.inputs}, n_vectors=50000
        )
        assert counts["total"] == pytest.approx(
            counts["domino_block"]
            + counts["static_inverters_inputs"]
            + counts["static_inverters_outputs"]
        )
        # Figure 5's second realisation: ~0.2019 + ~0.72 + ~0.0019.
        assert counts["domino_block"] == pytest.approx(0.2019, abs=0.02)
        assert counts["static_inverters_inputs"] == pytest.approx(0.72, abs=0.02)


class TestSequentialSimulator:
    def test_rates_and_energy(self, fig7):
        sim = SequentialPowerSimulator(fig7)
        rates = sim.run(n_cycles=200, n_streams=16, seed=1)
        assert "__energy__" in rates
        assert rates["__energy__"] > 0
        for name, rate in rates.items():
            if name != "__energy__":
                assert 0.0 <= rate <= 1.0

    def test_deterministic(self, fig7):
        sim = SequentialPowerSimulator(fig7)
        r1 = sim.run(n_cycles=64, n_streams=8, seed=9)
        r2 = sim.run(n_cycles=64, n_streams=8, seed=9)
        assert r1 == r2


MODELS = (
    DominoPowerModel(),
    DominoPowerModel(
        cap_per_fanin=0.25, inverter_cap=0.7, clock_cap_per_gate=0.1,
        and_series_penalty=0.3, current_scale=1.9,
    ),
    DominoPowerModel(include_boundary_inverters=False, clock_cap_per_gate=0.2),
)


def _skewed_probs(network, seed):
    rng = random.Random(seed)
    return {s: rng.uniform(0.05, 0.95) for s in network.sources()}


class TestAgainstReference:
    """``simulate_power`` on words against the bool-array body it
    replaced, with ``==`` on every field; the reference sums the input
    inverters in sorted order."""

    @pytest.mark.parametrize("bits", range(4))
    def test_fig3_every_assignment(self, fig3_aoi, bits):
        impl = phase_transform(fig3_aoi, PhaseAssignment.from_bits(fig3_aoi.output_names(), bits))
        for k, model in enumerate(MODELS):
            for probs in (None, _skewed_probs(fig3_aoi, bits)):
                for n_vectors in (1, 2, 63, 64, 65, 1000):
                    args = (impl, probs, model, n_vectors, k)
                    assert simulate_power(*args) == reference_simulate_power(*args)

    @pytest.mark.parametrize("name", ["apex7", "x3"])
    def test_suite_circuits_seeded_assignments(self, name):
        aoi = cleanup(to_aoi(spec_by_name(name).build()))
        for seed in range(3):
            impl = phase_transform(aoi, PhaseAssignment.random(aoi.output_names(), seed=seed))
            model = MODELS[seed]
            args = (impl, _skewed_probs(aoi, seed), model, 257, seed)
            assert simulate_power(*args) == reference_simulate_power(*args)

    def test_constant_and_source_outputs(self):
        net = LogicNetwork("boundary")
        for pi in ("a", "b"):
            net.add_input(pi)
        net.add_gate("c1", GateType.CONST1, [])
        net.add_gate("c0", GateType.CONST0, [])
        net.add_gate("g", GateType.AND, ["a", "c1"])
        net.add_gate("h", GateType.OR, ["b", "c0", "g"])
        net.add_output("k", "c1")
        net.add_output("w", "a")
        net.add_output("g")
        net.add_output("h")
        for bits in range(1 << len(net.outputs)):
            impl = phase_transform(net, PhaseAssignment.from_bits(net.output_names(), bits))
            for model in MODELS:
                args = (impl, _skewed_probs(net, bits), model, 99, bits)
                assert simulate_power(*args) == reference_simulate_power(*args)


_HASH_SEED_SCRIPT = """
import random
from repro.bench.generators import GeneratorConfig, random_control_network
from repro.network.duplication import phase_transform
from repro.network.ops import cleanup, to_aoi
from repro.phase import PhaseAssignment
from repro.power.estimator import estimate_power
from repro.power.simulator import simulate_power

aoi = cleanup(to_aoi(random_control_network("wide56", GeneratorConfig(
    n_inputs=92, n_outputs=56, n_gates=550, seed=1, support_size=12,
    or_probability=0.45, pi_literal_negation_probability=0.5))))
impl = phase_transform(aoi, PhaseAssignment.random(aoi.output_names(), seed=3))
rng = random.Random(5)
probs = {pi: rng.uniform(0.05, 0.95) for pi in aoi.inputs}
print(repr(simulate_power(impl, probs, n_vectors=256, seed=0)))
print(repr(estimate_power(aoi, impl.assignment, input_probs=probs, method="bdd")))
"""


def test_sums_do_not_depend_on_the_hash_seed():
    """Input inverters come from a set of names; a sum in its iteration
    order changes with ``PYTHONHASHSEED`` (summed that way, both floats
    differ between each two of these seeds)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for hash_seed in ("0", "1", "4"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1

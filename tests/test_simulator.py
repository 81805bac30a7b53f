"""Unit tests for the Monte-Carlo power simulator (PowerMill substitute)."""

import pytest

from repro.network.duplication import phase_transform
from repro.phase import Phase, PhaseAssignment
from repro.power.estimator import DominoPowerModel, PhaseEvaluator
from repro.power.simulator import (
    SequentialPowerSimulator,
    evaluate_implementation_batch,
    measure_switching_counts,
    simulate_power,
)
from repro.power.probability import random_source_batch


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
        values = evaluate_implementation_batch(impl, batch)
        for k in range(32):
            vec = {pi: bool(batch[pi][k]) for pi in small_random.inputs}
            ref = impl.evaluate_gates(vec)
            for key, arr in values.items():
                assert bool(arr[k]) == ref[key]

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

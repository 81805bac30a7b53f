"""Unit tests for signal-probability computation."""

import numpy as np
import pytest

from repro.errors import PowerError
from repro.network.netlist import GateType, LogicNetwork
from repro.power.probability import (
    bdd_probabilities,
    monte_carlo_probabilities,
    node_probabilities,
    pack_words,
    random_source_batch,
    simulate_words,
    uniform_input_probabilities,
)

from helpers import all_input_vectors


class TestUniformProbs:
    def test_covers_inputs_and_latches(self, fig7):
        probs = uniform_input_probabilities(fig7, 0.3)
        assert probs["a"] == 0.3
        assert probs["l0"] == 0.3
        assert len(probs) == 5


class TestSimulateBatch:
    def test_matches_scalar_evaluation(self, small_random):
        rng = np.random.default_rng(0)
        batch = {
            pi: rng.random(32) < 0.5 for pi in small_random.inputs
        }
        words = simulate_words(small_random, pack_words(batch), 32)
        for k in range(32):
            vec = {pi: bool(batch[pi][k]) for pi in small_random.inputs}
            ref = small_random.evaluate(vec)
            for name, word in words.items():
                assert bool(word >> k & 1) == ref[name], name

    def test_missing_source_raises(self, simple_and_or):
        with pytest.raises(PowerError):
            simulate_words(simple_and_or, {"a": 1}, 1)

    def test_all_gate_types_batch(self):
        net = LogicNetwork("m")
        for pi in ("a", "b", "c"):
            net.add_input(pi)
        net.add_gate("nand2", GateType.NAND, ["a", "b"])
        net.add_gate("nor2", GateType.NOR, ["a", "b"])
        net.add_gate("xnor2", GateType.XNOR, ["a", "b"])
        net.add_gate("mux", GateType.MUX, ["a", "b", "c"])
        for g in ("nand2", "nor2", "xnor2", "mux"):
            net.add_output(f"po_{g}", g)
        rng = np.random.default_rng(1)
        batch = {pi: rng.random(64) < 0.5 for pi in net.inputs}
        words = simulate_words(net, pack_words(batch), 64)
        for k in range(64):
            vec = {pi: bool(batch[pi][k]) for pi in net.inputs}
            ref = net.evaluate(vec)
            for g in ("nand2", "nor2", "xnor2", "mux"):
                assert bool(words[g] >> k & 1) == ref[g]


class TestRandomSourceBatch:
    def test_deterministic_with_seed(self, simple_and_or):
        b1 = random_source_batch(simple_and_or, {"a": 0.5}, 64, seed=5)
        b2 = random_source_batch(simple_and_or, {"a": 0.5}, 64, seed=5)
        for k in b1:
            assert (b1[k] == b2[k]).all()

    def test_respects_probability(self, simple_and_or):
        batch = random_source_batch(simple_and_or, {"a": 0.9, "b": 0.1}, 20000, seed=0)
        assert batch["a"].mean() == pytest.approx(0.9, abs=0.02)
        assert batch["b"].mean() == pytest.approx(0.1, abs=0.02)

    def test_includes_latches(self, fig7):
        batch = random_source_batch(fig7, {}, 16, seed=0)
        assert "l0" in batch and "l1" in batch


class TestEngines:
    def test_bdd_exact_values(self, simple_and_or):
        probs = bdd_probabilities(simple_and_or, {"a": 0.5, "b": 0.5, "c": 0.5})
        assert probs["ab"] == pytest.approx(0.25)
        assert probs["x"] == pytest.approx(0.25 + 0.5 - 0.125)
        assert probs["y"] == pytest.approx(0.75)

    def test_monte_carlo_close_to_bdd(self, small_random):
        input_probs = uniform_input_probabilities(small_random)
        exact = bdd_probabilities(small_random, input_probs)
        mc = monte_carlo_probabilities(small_random, input_probs, n_vectors=30000, seed=1)
        for name, p in exact.items():
            assert mc[name] == pytest.approx(p, abs=0.03), name

    def test_skewed_inputs(self, simple_and_or):
        probs = bdd_probabilities(simple_and_or, {"a": 0.9, "b": 0.9, "c": 0.9})
        assert probs["ab"] == pytest.approx(0.81)


class TestNodeProbabilitiesDispatch:
    def test_auto_uses_bdd(self, small_random):
        result = node_probabilities(small_random)
        assert result.method == "bdd"
        assert result.bdd_nodes > 0

    def test_auto_falls_back_to_monte_carlo(self, medium_random):
        result = node_probabilities(medium_random, max_nodes=4)
        assert result.method == "monte-carlo"
        assert result.n_vectors > 0

    def test_bdd_strict_raises(self, medium_random):
        from repro.errors import BddError

        with pytest.raises(BddError):
            node_probabilities(medium_random, method="bdd", max_nodes=4)

    def test_explicit_monte_carlo(self, small_random):
        result = node_probabilities(small_random, method="monte-carlo")
        assert result.method == "monte-carlo"

    def test_unknown_method_raises(self, small_random):
        with pytest.raises(PowerError):
            node_probabilities(small_random, method="quantum")

    def test_default_inputs_are_half(self, simple_and_or):
        result = node_probabilities(simple_and_or)
        assert result.probabilities["a"] == pytest.approx(0.5)

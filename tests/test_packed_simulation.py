"""Packed-word simulation against the numpy bool-array reference.

``simulate_words`` evaluates every node once as an int of ``n_vectors``
bits; every rate is a bit count over the vector count.  Each test pins
a caller against the bool-array body it replaced (``tests/helpers.py``)
with ``==``: the float64 mean of 0/1 values is exact, so the counts
must give the very same floats.
"""

import random

import numpy as np
import pytest

from repro.bench.generators import random_sequential_network
from repro.domino.mapper import map_implementation, simulate_mapped_power
from repro.network.blif import parse_blif
from repro.network.duplication import phase_transform
from repro.network.ops import cleanup, to_aoi
from repro.phase import PhaseAssignment
from repro.power.probability import (
    monte_carlo_probabilities,
    pack_words,
    random_source_batch,
    simulate_words,
)
from repro.power.simulator import SequentialPowerSimulator

from helpers import (
    random_mixed_network,
    reference_monte_carlo_probabilities,
    reference_sequential_power,
    reference_simulate_batch,
    reference_simulate_mapped_power,
    small_pool_blif,
    unpack_word,
)

VECTOR_COUNTS = (1, 7, 8, 63, 64, 65, 2048)


def _mixed(seed):
    return random_mixed_network(seed, n_inputs=5 + seed % 4, n_gates=40, n_latches=seed % 3)


def _assert_same_words(words, reference, n_vectors):
    assert list(words) == list(reference)
    for name, arr in reference.items():
        assert words[name] >> n_vectors == 0, name
        assert np.array_equal(unpack_word(words[name], n_vectors), arr), name


class TestWords:
    @pytest.mark.parametrize("n_vectors", VECTOR_COUNTS)
    @pytest.mark.parametrize("correlation", [0.0, 0.7])
    def test_simulate_words_matches_reference(self, n_vectors, correlation):
        for seed in range(6):
            net = _mixed(seed)
            batch = random_source_batch(
                net, {}, n_vectors, seed=seed, correlation=correlation
            )
            words = simulate_words(net, pack_words(batch), n_vectors)
            _assert_same_words(words, reference_simulate_batch(net, batch), n_vectors)

    @pytest.mark.parametrize("n_vectors", VECTOR_COUNTS)
    def test_monte_carlo_matches_reference(self, n_vectors):
        for seed in range(6):
            net = _mixed(seed)
            probs = {name: 0.1 + 0.8 * random.Random(seed).random() for name in net.inputs}
            assert monte_carlo_probabilities(
                net, probs, n_vectors=n_vectors, seed=seed
            ) == reference_monte_carlo_probabilities(net, probs, n_vectors, seed)

    def test_every_gate_type_is_covered(self):
        kinds = set()
        covers = set()
        for seed in range(6):
            for node in _mixed(seed).nodes.values():
                kinds.add(node.gate_type)
                if node.cover is not None:
                    covers.add(node.cover.output_value)
        from repro.network.netlist import GateType

        assert kinds == set(GateType)
        assert covers == {"0", "1"}

    def test_given_names_are_taken_as_is(self):
        net = _mixed(1)
        batch = random_source_batch(net, {}, 65, seed=4)
        gate = next(n.name for n in net.gates)
        batch[gate] = np.ones(65, dtype=bool)
        words = simulate_words(net, pack_words(batch), 65)
        _assert_same_words(words, reference_simulate_batch(net, batch), 65)

    def test_pack_round_trip(self):
        rng = np.random.default_rng(0)
        for n in VECTOR_COUNTS + (0,):
            arrays = {f"s{i}": rng.random(n) < 0.5 for i in range(3)}
            words = pack_words(arrays)
            for name, arr in arrays.items():
                assert words[name] == sum(1 << k for k in range(n) if arr[k])
                assert np.array_equal(unpack_word(words[name], n), arr)


def _small_designs(count, seed=0):
    """Mapped small-pool designs under random phase assignments, so that
    the inverters are driven by inputs (input side) and by cells
    (output side)."""
    designs = []
    for index in range(count):
        aoi = cleanup(to_aoi(parse_blif(small_pool_blif(index))))
        assignment = PhaseAssignment.random(aoi.output_names(), seed=seed + index)
        designs.append(map_implementation(phase_transform(aoi, assignment)))
    return designs


def _inverter_drivers(design):
    kinds = set()
    for name, cell in design.cells.items():
        if not cell.is_domino:
            driver = design.network.nodes[design.network.nodes[name].fanins[0]]
            kinds.add("input" if driver.gate_type.is_comb_source else "cell")
    return kinds


class TestMappedPower:
    @pytest.mark.parametrize("n_vectors", (1, 2, 7, 64, 65, 2048))
    def test_matches_reference(self, n_vectors):
        designs = _small_designs(12)
        drivers = set().union(*(_inverter_drivers(d) for d in designs))
        assert drivers == {"input", "cell"}
        for k, design in enumerate(designs):
            assert simulate_mapped_power(
                design, n_vectors=n_vectors, seed=k, current_scale=1.7
            ) == reference_simulate_mapped_power(
                design, n_vectors=n_vectors, seed=k, current_scale=1.7
            )

    def test_sized_design_with_skewed_inputs(self):
        rng = random.Random(3)
        for design in _small_designs(8, seed=50):
            for name in design.size_factors:
                design.size_factors[name] = rng.uniform(1.0, 4.0)
            probs = {name: rng.random() for name in design.network.inputs}
            assert simulate_mapped_power(
                design, input_probs=probs, n_vectors=333, seed=9
            ) == reference_simulate_mapped_power(
                design, input_probs=probs, n_vectors=333, seed=9
            )


class TestSequentialPower:
    @pytest.mark.parametrize("n_streams", (1, 7, 32, 65))
    def test_matches_reference(self, n_streams):
        for seed in range(4):
            net = random_sequential_network(
                f"seq{seed}", n_inputs=4, n_latches=3, n_gates=16, seed=seed
            )
            sim = SequentialPowerSimulator(net)
            probs = {name: 0.3 for name in net.inputs[:2]}
            assert sim.run(
                input_probs=probs, n_cycles=40, n_streams=n_streams, seed=seed, warmup=4
            ) == reference_sequential_power(
                sim, input_probs=probs, n_cycles=40, n_streams=n_streams, seed=seed, warmup=4
            )

    def test_mixed_network_with_latch_init_values(self):
        net = random_mixed_network(8, n_inputs=5, n_gates=30, n_latches=3)
        assert {latch.init_value for latch in net.latches} == {0, 1}
        sim = SequentialPowerSimulator(net)
        assert sim.run(n_cycles=30, n_streams=9, seed=2) == reference_sequential_power(
            sim, n_cycles=30, n_streams=9, seed=2
        )

    def test_figure7(self, fig7):
        sim = SequentialPowerSimulator(fig7)
        assert sim.run(n_cycles=64, seed=1) == reference_sequential_power(
            sim, n_cycles=64, seed=1
        )

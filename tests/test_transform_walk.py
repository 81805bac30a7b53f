"""The phase transform's walk of the polarity space against the resolver
it replaced.

``phase_transform`` builds an implementation by walking the network's
:class:`PolaritySpace` depth first from the outputs' driver references.
``reference_phase_transform`` in ``tests/helpers.py`` is the private
stack machine it ran before, and its implementations order their gates
with the old DFS of ``topological_gate_order``.  Each implementation
must equal the reference exactly (``==``, fanins as tuples): the gates
in stored order with their types and fanins, the input inverters, the
output refs, and the node order and fingerprint of the block
``implementation_network`` builds — with the network's precomputed
space and without one.
"""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core.config import FlowConfig
from repro.core.pipeline import Pipeline
from repro.errors import NetworkError
from repro.network.blif import parse_blif
from repro.network.duplication import (
    DominoImplementation,
    PolaritySpace,
    implementation_network,
    phase_transform,
)
from repro.network.netlist import GateType, LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.phase import PhaseAssignment, enumerate_assignments

from helpers import (
    random_mixed_network,
    reference_phase_transform,
    small_pool_blif,
)

N_SMALL = 40
N_MIXED = 40


def _assignments(network: LogicNetwork) -> Iterator[PhaseAssignment]:
    outputs = network.output_names()
    yield PhaseAssignment.all_positive(outputs)
    yield PhaseAssignment.all_negative(outputs)
    for seed in range(4):
        yield PhaseAssignment.random(outputs, seed=seed)


def assert_same(impl: DominoImplementation, ref: DominoImplementation) -> None:
    # the old DFS returned the order the old resolver stored the gates in
    assert ref.topological_gate_order() == list(ref.gates.values())
    assert list(impl.gates.items()) == list(ref.gates.items())
    assert impl.input_inverters == ref.input_inverters
    assert list(impl.output_refs.items()) == list(ref.output_refs.items())
    block, ref_block = implementation_network(impl), implementation_network(ref)
    assert list(block.nodes) == list(ref_block.nodes)
    assert block.fingerprint() == ref_block.fingerprint()


def check_network(network: LogicNetwork, assignments=None) -> None:
    space = PolaritySpace(network)
    for assignment in assignments or _assignments(network):
        ref = reference_phase_transform(network, assignment)
        assert_same(phase_transform(network, assignment), ref)
        assert_same(phase_transform(network, assignment, space), ref)


@pytest.mark.parametrize("index", range(N_SMALL))
def test_small_pool(index):
    check_network(cleanup(to_aoi(parse_blif(small_pool_blif(index)))))


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_56_outputs(seed):
    config = GeneratorConfig(
        n_inputs=92, n_outputs=56, n_gates=550, seed=seed,
        support_size=12, or_probability=0.45,
    )
    check_network(cleanup(to_aoi(random_control_network(f"g56_{seed}", config))))


@pytest.mark.parametrize("seed", range(N_MIXED))
def test_mixed_networks_with_latches(seed):
    # to_aoi alone keeps the NOT and BUF chains and the constants
    check_network(to_aoi(random_mixed_network(seed, n_gates=30, n_latches=seed % 3)))


def _chains() -> LogicNetwork:
    """NOT chains of odd and even length, BUF chains, constant outputs and
    outputs driven straight by inputs, feeding gates and outputs."""
    net = LogicNetwork("chains")
    for pi in ("a", "b", "c", "d"):
        net.add_input(pi)
    net.add_gate("k0", GateType.CONST0, [])
    net.add_gate("k1", GateType.CONST1, [])
    prev = "a"
    for i in range(5):  # n0 = ~a, n1 = a, ... n4 = ~a
        net.add_gate(f"n{i}", GateType.NOT, [prev])
        prev = f"n{i}"
    net.add_gate("bf0", GateType.BUF, ["b"])
    net.add_gate("bf1", GateType.BUF, ["bf0"])
    net.add_gate("g0", GateType.AND, ["n4", "bf1", "k1"])
    net.add_gate("g1", GateType.OR, ["n1", "c", "g0"])
    net.add_gate("ng1", GateType.NOT, ["g1"])
    net.add_gate("bg", GateType.BUF, ["ng1"])
    net.add_gate("g2", GateType.AND, ["bg", "g0", "n3"])
    net.add_gate("nb", GateType.NOT, ["bf1"])
    net.add_output("o_and", "g2")
    net.add_output("o_not", "ng1")
    net.add_output("o_buf", "bg")
    net.add_output("o_d", "d")
    net.add_output("o_nb", "nb")
    net.add_output("o_k0", "k0")
    net.add_output("o_k1", "k1")
    net.add_output("o_chain", "n4")
    net.validate()
    return net


def test_chains_constants_and_inputs_in_every_phase():
    net = _chains()
    check_network(net, enumerate_assignments(net.output_names()))


def test_output_driven_by_input_in_negative_phase_gets_an_inverter():
    net = LogicNetwork("wire")
    net.add_input("a")
    net.add_input("b")
    net.add_gate("g", GateType.AND, ["a", "b"])
    net.add_output("f", "a")
    net.add_output("h", "g")
    impl = phase_transform(
        net, PhaseAssignment.from_bits(net.output_names(), 0b01), PolaritySpace(net)
    )
    assert impl.input_inverters == {"a"}
    check_network(net, enumerate_assignments(net.output_names()))


def test_flow_transforms_walk_the_evaluator_space():
    network = parse_blif(small_pool_blif(6))
    result = Pipeline(FlowConfig(n_vectors=256)).run(network)
    ctx = result.context
    for build in ctx.builds.values():
        assert_same(build.implementation, reference_phase_transform(ctx.aoi, build.assignment))
        for gate in build.implementation.gates.values():
            assert ctx.evaluator.space.gates[gate.key] is gate


def test_space_of_another_network_raises():
    net = _chains()
    assignment = PhaseAssignment.all_positive(net.output_names())
    for other in (net.copy(), cleanup(to_aoi(parse_blif(small_pool_blif(0))))):
        with pytest.raises(NetworkError, match="polarity space"):
            phase_transform(net, assignment, PolaritySpace(other))

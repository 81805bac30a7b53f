"""The one-pass technology mapper against the path it replaced.

``map_implementation`` builds the decomposed block straight from the
implementation's gates and compiles it with one validating walk.
``reference_map_implementation`` in ``tests/helpers.py`` is the old
path: ``implementation_network`` through ``add_gate`` and validated,
decomposed through ``add_gate`` and validated again, then compiled from
``topological_order`` and ``fanout_map``.  Every design must equal the
reference exactly: node insertion order, types and fanins, the ``cells``
order, ``size_factors`` and every :class:`CompiledNetlist` field, and
so must the designs after timing repair.  ``implementation_network``
shares the new node builder, so it is checked against its old body too.
"""

from __future__ import annotations

from typing import Iterator, List

import pytest

from repro.bench.generators import random_sequential_network
from repro.domino.gates import DominoCellLibrary
from repro.domino.mapper import map_implementation
from repro.domino.timing import default_timing_target, resize_to_meet_timing
from repro.errors import NetworkError
from repro.network.blif import parse_blif
from repro.network.duplication import PolaritySpace, implementation_network, phase_transform
from repro.network.netlist import GateType, LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.phase import Phase, PhaseAssignment

from helpers import (
    large_pool_network,
    reference_implementation_network,
    reference_map_implementation,
    small_pool_blif,
)

#: A library narrow enough that modest gates need trees of three layers.
NARROW = DominoCellLibrary(max_and_fanin=2, max_or_fanin=3)


def _assignments(network: LogicNetwork, n_random: int = 3) -> Iterator[PhaseAssignment]:
    outputs = network.output_names()
    yield PhaseAssignment.all_positive(outputs)
    yield PhaseAssignment.all_negative(outputs)
    for seed in range(n_random):
        yield PhaseAssignment.random(outputs, seed=seed)


def assert_same_network(net: LogicNetwork, ref: LogicNetwork) -> None:
    assert net.name == ref.name
    assert net.inputs == ref.inputs
    assert net.outputs == ref.outputs
    # Node is a dataclass: name, type, fanins, cover and init value
    assert list(net.nodes.items()) == list(ref.nodes.items())


def assert_same_design(design, ref) -> None:
    assert_same_network(design.network, ref.network)
    assert design.library is ref.library
    assert list(design.cells.items()) == list(ref.cells.items())
    assert list(design.size_factors.items()) == list(ref.size_factors.items())
    assert design.compiled == ref.compiled


def check_network(network: LogicNetwork, libraries=(None,), n_random: int = 3) -> None:
    space = PolaritySpace(network)
    for assignment in _assignments(network, n_random):
        impl = phase_transform(network, assignment, space)
        assert_same_network(
            implementation_network(impl), reference_implementation_network(impl)
        )
        for library in libraries:
            assert_same_design(
                map_implementation(impl, library), reference_map_implementation(impl, library)
            )


@pytest.mark.parametrize("index", range(40))
def test_small_pool(index):
    check_network(cleanup(to_aoi(parse_blif(small_pool_blif(index)))), (None, NARROW))


@pytest.mark.parametrize("seed", [1, 3])
def test_large_pool(seed):
    check_network(large_pool_network(seed), n_random=1)


@pytest.mark.parametrize("seed", range(4))
def test_sequential(seed):
    """Latch outputs become block inputs, after the primary inputs."""
    net = cleanup(to_aoi(random_sequential_network(f"q{seed}", 8, 4, 40, seed=seed)))
    assert net.latches
    check_network(net, (None, NARROW))


def _wide_network() -> LogicNetwork:
    """Gates fed by constants, an output driven by a constant, and an
    AND of 20 inputs and an OR of 70: trees of two layers under the
    default library, and of three for the OR's DeMorgan dual (an AND of
    70 at four inputs a cell)."""
    net = LogicNetwork("wide")
    pis = [f"i{k}" for k in range(70)]
    for pi in pis:
        net.add_input(pi)
    net.add_gate("one", GateType.CONST1, [])
    net.add_gate("zero", GateType.CONST0, [])
    net.add_gate("wand", GateType.AND, pis[:20])
    net.add_gate("wor", GateType.OR, pis)
    net.add_gate("nb", GateType.NOT, ["i1"])
    net.add_gate("ka", GateType.AND, ["one", "i0", "nb"])
    net.add_gate("ko", GateType.OR, ["zero", "ka", "wand"])
    net.add_gate("nk", GateType.NOT, ["ko"])
    net.add_gate("mix", GateType.AND, ["wor", "nk", "one", "zero"])
    for po in ("wand", "wor", "ka", "ko", "mix"):
        net.add_output(f"o_{po}", po)
    net.add_output("o_const", "one")
    net.add_output("o_pi", "i2")
    net.validate()
    return net


def test_constants_and_wide_gates():
    net = _wide_network()
    outputs = net.output_names()
    for assignment, depth in ((PhaseAssignment.all_positive(outputs), {"0", "1"}),
                              (PhaseAssignment.all_negative(outputs), {"0", "1", "2"})):
        design = map_implementation(phase_transform(net, assignment))
        layers = {name.split("#t")[1].split("_")[0] for name in design.cells if "#t" in name}
        assert layers == depth
        kinds = [node.gate_type for node in design.network.nodes.values()]
        assert kinds.count(GateType.CONST0) + kinds.count(GateType.CONST1) >= 2
    check_network(net, (None, NARROW), n_random=4)


def _clashing_network() -> LogicNetwork:
    """Inputs named like the names the block makes fresh: an inverter
    (``x_inv``), a constant (``const``), a phase inverter
    (``o_phase_inv``) and a tree gate (``w$p#t0_0``)."""
    net = LogicNetwork("clash")
    for pi in ("x", "y", "x_inv", "const", "o_phase_inv", "w$p#t0_0", "w$n#t0_0"):
        net.add_input(pi)
    others = [f"z{k}" for k in range(9)]
    for pi in others:
        net.add_input(pi)
    net.add_gate("one", GateType.CONST1, [])
    net.add_gate("nx", GateType.NOT, ["x"])
    net.add_gate("a", GateType.AND, ["nx", "y", "one", "x_inv"])
    net.add_gate("w", GateType.OR, others + ["a", "const"])
    net.add_gate("v", GateType.AND, ["w", "one", "o_phase_inv"])
    net.add_output("o", "v")
    net.add_output("o_phase_inv_out", "a")
    net.add_output("w", "w")
    net.validate()
    return net


def test_fresh_name_collisions():
    net = _clashing_network()
    assignment = PhaseAssignment(
        {"o": Phase.NEGATIVE, "o_phase_inv_out": Phase.POSITIVE, "w": Phase.NEGATIVE}
    )
    design = map_implementation(phase_transform(net, assignment))
    names = set(design.network.nodes)
    assert {"x_inv__1", "const__1", "o_phase_inv__1", "w$n#t0_0__1"} <= names
    check_network(net, (None, NARROW), n_random=6)


def test_clashing_gate_name_raises_as_before():
    """A PI named like a domino gate instance: both paths refuse it."""
    net = LogicNetwork("dup")
    net.add_input("a")
    net.add_input("g$p")
    net.add_gate("g", GateType.AND, ["a", "g$p"])
    net.add_output("o", "g")
    impl = phase_transform(net, PhaseAssignment.all_positive(["o"]))
    for build in (map_implementation, reference_map_implementation):
        with pytest.raises(NetworkError, match="duplicate node name"):
            build(impl)


@pytest.mark.parametrize("index", [3, 6, 11, 17])
def test_resized_designs_stay_equal(index):
    """Table 2's timing repair reads the compiled netlist: the same
    design resizes the same way, iteration for iteration."""
    aoi = cleanup(to_aoi(parse_blif(small_pool_blif(index))))
    for assignment in _assignments(aoi, 2):
        impl = phase_transform(aoi, assignment)
        design, ref = map_implementation(impl), reference_map_implementation(impl)
        target = default_timing_target(design)
        assert target == default_timing_target(ref)
        results: List = [resize_to_meet_timing(d, target) for d in (design, ref)]
        assert results[0] == results[1]
        assert_same_design(design, ref)
        assert any(factor != 1.0 for factor in design.size_factors.values())

"""The shared post-order walk against the per-visit walks it replaced.

``LogicNetwork.topological_order`` and the cycle check of ``validate``
share one iterative DFS that reads each gate type's precomputed
``is_comb_source`` flag.  The references in ``tests/helpers.py`` are the
old walks: each visit calls a ``_comb_fanins`` helper.  Orders must be
equal, and ``validate`` must raise the same ``NetworkError`` text (or
none) on seeded cyclic and latch-broken networks.
"""

import random

import pytest

from repro.bench.generators import random_sequential_network
from repro.errors import NetworkError
from repro.network.blif import parse_blif
from repro.network.netlist import GateType
from repro.network.ops import cleanup, to_aoi

from helpers import (
    random_mixed_network,
    reference_check_acyclic,
    reference_topological_order,
    small_pool_blif,
)


def _shuffled(network, seed):
    """``network`` with its nodes inserted in a seeded random order, so
    that readers come before the nodes they read, latches included (as
    a BLIF file may declare a ``.latch`` after the logic reading it)."""
    net = network.copy()
    items = list(net.nodes.items())
    random.Random(seed).shuffle(items)
    net.nodes = dict(items)
    return net


def _networks():
    for seed in range(8):
        mixed = random_mixed_network(seed, n_gates=30, n_latches=seed % 4)
        sequential = random_sequential_network(
            f"seq{seed}", n_inputs=5, n_latches=1 + seed % 4, n_gates=25, seed=seed
        )
        yield from (mixed, sequential, _shuffled(mixed, seed), _shuffled(sequential, seed))
    for index in range(8):
        yield cleanup(to_aoi(parse_blif(small_pool_blif(index))))


def _cycle_error(check, network):
    try:
        check(network)
    except NetworkError as exc:
        return str(exc)
    return None


def _with_back_edges(network, seed, count=3):
    """Copy ``network`` with ``count`` extra fanins from a gate to nodes
    inserted after it: some close combinational cycles, some run into a
    latch, some are harmless forward references."""
    rng = random.Random(seed)
    net = network.copy()
    names = list(net.nodes)
    gates = [i for i, name in enumerate(names) if not net.nodes[name].gate_type.is_comb_source]
    for _ in range(count):
        i = rng.choice(gates)
        node = net.nodes[names[i]]
        if node.gate_type not in (GateType.AND, GateType.OR, GateType.XOR, GateType.NAND):
            continue
        node.fanins = list(node.fanins) + [names[rng.randrange(i, len(names))]]
    return net


class TestTopologicalOrder:
    def test_matches_reference(self):
        for net in _networks():
            assert net.topological_order() == reference_topological_order(net)

    def test_matches_reference_on_cyclic_networks(self):
        for k, net in enumerate(_networks()):
            cyclic = _with_back_edges(net, k)
            assert cyclic.topological_order() == reference_topological_order(cyclic)

    def test_every_node_follows_its_combinational_fanins(self):
        for net in _networks():
            pos = {name: i for i, name in enumerate(net.topological_order())}
            assert len(pos) == len(net.nodes)
            for node in net.gates:
                assert all(pos[fi] < pos[node.name] for fi in node.fanins)

    def test_flags(self):
        sources = {GateType.INPUT, GateType.CONST0, GateType.CONST1}
        for gate_type in GateType:
            assert gate_type.is_source == (gate_type in sources)
            assert gate_type.is_comb_source == (gate_type in sources | {GateType.LATCH})


class TestCycleCheck:
    def test_same_errors_as_reference(self):
        raised = passed = 0
        for k, net in enumerate(_networks()):
            for j in range(4):
                cyclic = _with_back_edges(net, 10 * k + j, count=1 + j)
                expected = _cycle_error(reference_check_acyclic, cyclic)
                assert _cycle_error(lambda n: n.validate(), cyclic) == expected
                raised += expected is not None
                passed += expected is None
        assert raised > 20 and passed > 20

    def test_latch_broken_feedback_is_not_a_cycle(self):
        for seed in range(6):
            net = random_sequential_network(
                f"fb{seed}", n_inputs=4, n_latches=4, n_gates=20, seed=seed,
                feedback_probability=1.0,
            )
            # every latch reads logic that reads latch outputs
            for latch in net.latches:
                assert not net.nodes[latch.fanins[0]].gate_type.is_comb_source
            net.validate()
            assert reference_check_acyclic(net) is None

    def test_self_loop(self):
        net = random_mixed_network(2, n_gates=12)
        gate = next(n for n in net.gates if n.gate_type is GateType.AND)
        gate.fanins = gate.fanins + [gate.name]
        with pytest.raises(NetworkError, match=f"combinational cycle through node {gate.name!r}"):
            net.validate()

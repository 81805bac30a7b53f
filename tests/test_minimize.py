"""Tests for the Quine-McCluskey two-level minimiser."""

import itertools
import random

import pytest

import repro.network.minimize as minimize
from repro.network.blif import parse_blif, write_blif
from repro.network.minimize import (
    MinimizationResult,
    minimize_cover,
    minimize_network,
    minimum_cover,
    prime_implicants,
    _cube_bits,
)
from repro.network.netlist import GateType, LogicNetwork, SopCover
from repro.network.ops import networks_equivalent

from helpers import (
    all_input_vectors,
    bitset,
    cube_minterms,
    merge_cubes,
    reference_minimize_cover,
    small_pool_blif,
)


class TestCubeOps:
    def test_minterms_of_full_cube(self):
        assert set(cube_minterms("11")) == {3}

    def test_minterms_with_dont_cares(self):
        assert set(cube_minterms("1-")) == {1, 3}
        assert set(cube_minterms("--")) == {0, 1, 2, 3}

    def test_merge_adjacent(self):
        assert merge_cubes("110", "100") == "1-0"

    def test_merge_requires_single_difference(self):
        assert merge_cubes("110", "001") is None

    def test_merge_respects_dashes(self):
        assert merge_cubes("1-0", "110") is None
        assert merge_cubes("1-0", "1-1") == "1--"

    def test_cube_bits_are_the_minterms(self):
        for n in range(5):
            for chars in itertools.product("01-", repeat=n):
                cube = "".join(chars)
                assert _cube_bits(cube) == bitset(cube_minterms(cube))


class TestPrimeImplicants:
    def test_classic_example(self):
        # f = sum m(0,1,2,5,6,7) over 3 vars (LSB-first indexing).
        minterms = {0, 1, 2, 5, 6, 7}
        primes = prime_implicants(bitset(minterms), 3)
        covered = set()
        for p in primes:
            covered |= set(cube_minterms(p))
        assert minterms <= covered
        # Prime implicants must not cover off-set minterms... they may
        # (QM primes only cover the on-set by construction here).
        assert covered == minterms

    def test_tautology(self):
        primes = prime_implicants(bitset(range(8)), 3)
        assert primes == ["---"]

    def test_empty(self):
        assert prime_implicants(bitset(set()), 3) == []


class TestMinimumCover:
    def test_cover_is_complete(self):
        minterms = {0, 1, 2, 5, 6, 7}
        primes = prime_implicants(bitset(minterms), 3)
        cover = minimum_cover(bitset(minterms), primes)
        covered = set()
        for p in cover:
            covered |= set(cube_minterms(p))
        assert minterms <= covered

    def test_essential_primes_selected(self):
        # f = m(0,1,3): '0-' (covers 0,1... LSB-first: cube index 0 is
        # var0) — just check minimality of cube count.
        minterms = {0, 1, 3}
        primes = prime_implicants(bitset(minterms), 2)
        cover = minimum_cover(bitset(minterms), primes)
        assert len(cover) == 2


class TestMinimizeCover:
    def test_redundant_cubes_removed(self):
        # f = a OR (a AND b): one cube suffices.
        cover = SopCover(cubes=["1-", "11"], output_value="1")
        result = minimize_cover(cover, 2)
        assert result.minimized_cubes == 1
        assert result.improved

    def test_offset_cover_converted(self):
        # off-set {11} == on-set {00, 01, 10} == NOT(a AND b).
        cover = SopCover(cubes=["11"], output_value="0")
        result = minimize_cover(cover, 2)
        assert result.cover.output_value == "1"
        on = set()
        for cube in result.cover.cubes:
            on |= set(cube_minterms(cube))
        assert on == {0, 1, 2}

    def test_too_many_inputs_untouched(self):
        cover = SopCover(cubes=["1" * 20], output_value="1")
        result = minimize_cover(cover, 20, max_inputs=12)
        assert result.cover is cover

    def test_function_preserved(self):
        cover = SopCover(cubes=["110", "100", "111", "011"], output_value="1")
        result = minimize_cover(cover, 3)
        for bits in itertools.product([False, True], repeat=3):
            assert result.cover.evaluate(bits) == cover.evaluate(bits)


class TestMinimizeNetwork:
    def _sop_net(self, cubes, output_value="1", n=3):
        net = LogicNetwork("m")
        pis = [f"i{k}" for k in range(n)]
        for pi in pis:
            net.add_input(pi)
        net.add_gate("f", GateType.SOP, pis, cover=SopCover(cubes, output_value))
        net.add_output("f")
        return net

    def test_equivalence(self):
        net = self._sop_net(["110", "100", "111", "011"])
        out = minimize_network(net)
        assert networks_equivalent(net, out)

    def test_unused_fanins_dropped(self):
        # f = i0 regardless of i1/i2.
        net = self._sop_net(["1--", "11-", "1-1"])
        out = minimize_network(net)
        assert out.nodes["f"].fanins == ["i0"]

    def test_constant_collapse(self):
        net = self._sop_net(["---"])
        out = minimize_network(net)
        # Tautology: QM reduces to '---' over zero used fanins — the
        # node becomes const1 or keeps a single all-dash cube.
        assert out.evaluate_outputs({"i0": False, "i1": False, "i2": False})["f"]

    def test_empty_onset_collapses_to_const0(self):
        net = self._sop_net([])
        out = minimize_network(net)
        assert out.nodes["f"].gate_type is GateType.CONST0

    def test_blif_pipeline(self):
        text = (
            ".model m\n.inputs a b c\n.outputs f\n"
            ".names a b c f\n110 1\n100 1\n111 1\n011 1\n.end\n"
        )
        net = parse_blif(text)
        out = minimize_network(net)
        assert networks_equivalent(net, out)
        assert len(out.nodes["f"].cover.cubes) <= 4

    def test_gate_nodes_untouched(self, simple_and_or):
        out = minimize_network(simple_and_or)
        assert networks_equivalent(simple_and_or, out)


def _random_cover(rng, n_inputs):
    cubes = [
        "".join(rng.choice("01-") for _ in range(n_inputs))
        for _ in range(rng.randint(0, 8))
    ]
    return SopCover(cubes=cubes, output_value=rng.choice("01"))


def _assert_matches_reference(cover, n_inputs):
    result = minimize_cover(cover, n_inputs)
    expected = reference_minimize_cover(cover, n_inputs)
    assert result.cover.cubes == expected.cover.cubes
    assert result == expected


class TestReferenceParity:
    """The bitmask minimiser returns the string reference's covers,
    order included."""

    def test_every_function_up_to_three_inputs(self):
        cases = 0
        for n in range(1, 4):
            for function in range(1 << (1 << n)):
                cubes = [
                    "".join("1" if m >> i & 1 else "0" for i in range(n))
                    for m in range(1 << n)
                    if function >> m & 1
                ]
                for output_value in "01":
                    _assert_matches_reference(SopCover(cubes, output_value), n)
                    cases += 1
        assert cases == 552

    def test_seeded_random_covers(self):
        rng = random.Random(18)
        for n in [rng.randint(1, 6) for _ in range(200)] + [
            rng.randint(7, 8) for _ in range(20)
        ]:
            _assert_matches_reference(_random_cover(rng, n), n)

    def test_early_exit_covers_come_back_unchanged(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 6)
            if rng.random() < 0.5:  # no cube or one cube
                cubes = _random_cover(rng, n).cubes[: rng.randint(0, 1)]
            else:  # an OR of literals on distinct variables
                cubes = [
                    "-" * v + rng.choice("01") + "-" * (n - v - 1)
                    for v in rng.sample(range(n), rng.randint(1, n))
                ]
            cover = SopCover(cubes, "1")
            result = minimize_cover(cover, n)
            assert result.cover is cover
            assert result == reference_minimize_cover(cover, n)

    def test_covers_that_only_look_minimum_are_minimised(self):
        # Off-set covers and repeated variables never take the early exit.
        assert minimize_cover(SopCover(["1-"], "0"), 2).cover.cubes == ["0-"]
        result = minimize_cover(SopCover(["1-", "0-"], "1"), 2)
        assert result.cover.cubes == ["--"]
        assert result == reference_minimize_cover(SopCover(["1-", "0-"], "1"), 2)


def _gate_mix_blif(seed):
    """BLIF text of a seeded network of XOR, XNOR, NAND, NOR, MUX and
    random SOP gates.  Parsed back, every gate is an SOP node: XOR and
    XNOR as minterm covers, NAND and NOR as off-set covers."""
    rng = random.Random(seed)
    net = LogicNetwork(f"mix{seed}")
    signals = [f"i{k}" for k in range(6)]
    for name in signals:
        net.add_input(name)
    kinds = [GateType.XOR, GateType.XNOR, GateType.NAND, GateType.NOR, GateType.MUX, GateType.SOP]
    for g in range(12):
        kind = rng.choice(kinds)
        if kind is GateType.MUX:
            n = 3
        else:
            n = rng.randint(1 if kind is GateType.SOP else 2, 5)
        fanins = rng.sample(signals, n)
        cover = _random_cover(rng, n) if kind is GateType.SOP else None
        net.add_gate(f"g{g}", kind, fanins, cover=cover)
        signals.append(f"g{g}")
    for name in signals[-3:]:
        net.add_output(name)
    return write_blif(net)


class TestPreparedNetworkParity:
    """``minimize_network`` prepares the same network, fingerprint for
    fingerprint, with the bitmask minimiser as with the reference."""

    @staticmethod
    def _prepare_both(text, monkeypatch):
        net = parse_blif(text)
        fast = minimize_network(net)
        with monkeypatch.context() as patch:
            patch.setattr(minimize, "minimize_cover", reference_minimize_cover)
            reference = minimize_network(net)
        assert fast.fingerprint() == reference.fingerprint()
        return net, fast

    def test_small_pool_circuits(self, monkeypatch):
        for index in range(12):
            self._prepare_both(small_pool_blif(index), monkeypatch)

    def test_gate_mix_networks(self, monkeypatch):
        collapsed = dropped = 0
        for seed in range(30):
            net, fast = self._prepare_both(_gate_mix_blif(seed), monkeypatch)
            assert networks_equivalent(net, fast)
            for name, node in fast.nodes.items():
                before = net.nodes[name]
                if before.gate_type is not GateType.SOP:
                    continue
                if node.gate_type in (GateType.CONST0, GateType.CONST1):
                    collapsed += 1
                elif len(node.fanins) < len(before.fanins):
                    dropped += 1
        # both network-level branches were exercised
        assert collapsed and dropped

"""More property-based tests: strash, QM minimisation, glitch model,
timing model, and the estimator under random electrical models."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.network.minimize import minimize_cover, prime_implicants
from repro.network.netlist import GateType, LogicNetwork, SopCover
from repro.network.ops import networks_equivalent
from repro.network.strash import structural_hash
from repro.network.duplication import phase_transform
from repro.phase import PhaseAssignment
from repro.power.estimator import DominoPowerModel, PhaseEvaluator, estimate_power
from repro.power.glitch import domino_glitch_check

from helpers import bitset, cube_minterms, reference_domino_glitch_check, reference_minimize_cover
from test_properties import aoi_networks, SETTINGS


class TestStrashProperties:
    @SETTINGS
    @given(net=aoi_networks())
    def test_strash_preserves_function(self, net):
        result = structural_hash(net)
        assert networks_equivalent(net, result.network, exhaustive_limit=6, n_vectors=64)

    @SETTINGS
    @given(net=aoi_networks())
    def test_strash_never_grows(self, net):
        result = structural_hash(net)
        assert len(result.network.nodes) <= len(net.nodes)

    @SETTINGS
    @given(net=aoi_networks())
    def test_strash_idempotent(self, net):
        once = structural_hash(net)
        twice = structural_hash(once.network)
        assert twice.merged == 0


@st.composite
def sop_covers(draw, n_vars=4):
    n_cubes = draw(st.integers(0, 6))
    cubes = [
        "".join(draw(st.sampled_from("01-")) for _ in range(n_vars))
        for _ in range(n_cubes)
    ]
    output_value = draw(st.sampled_from(["0", "1"]))
    return SopCover(cubes=cubes, output_value=output_value), n_vars


class TestMinimizeProperties:
    @SETTINGS
    @given(data=sop_covers())
    def test_minimised_cover_equivalent(self, data):
        cover, n = data
        result = minimize_cover(cover, n)
        for bits in itertools.product([False, True], repeat=n):
            assert result.cover.evaluate(bits) == cover.evaluate(bits)

    @SETTINGS
    @given(data=sop_covers())
    def test_minimised_never_more_cubes(self, data):
        cover, n = data
        result = minimize_cover(cover, n)
        assert result.minimized_cubes <= max(result.original_cubes, 1) or (
            cover.output_value == "0"
        )

    @SETTINGS
    @given(
        minterms=st.sets(st.integers(0, 15), max_size=16),
    )
    def test_primes_cover_exactly_the_onset(self, minterms):
        primes = prime_implicants(bitset(minterms), 4)
        covered = set()
        for p in primes:
            covered |= set(cube_minterms(p))
        assert covered == set(minterms)

    @SETTINGS
    @given(data=st.integers(1, 6).flatmap(lambda n: sop_covers(n_vars=n)))
    def test_matches_the_reference(self, data):
        cover, n = data
        result = minimize_cover(cover, n)
        expected = reference_minimize_cover(cover, n)
        assert result.cover.cubes == expected.cover.cubes
        assert result == expected


class TestDominoMonotonicityProperty:
    @SETTINGS
    @given(net=aoi_networks(max_inputs=5, max_gates=10), bits=st.integers(0, 15))
    def test_every_implementation_is_glitch_free(self, net, bits):
        a = PhaseAssignment.from_bits(
            net.output_names(), bits % (1 << len(net.outputs))
        )
        impl = phase_transform(net, a)
        result = domino_glitch_check(impl, n_cycles=32, seed=0)
        assert result is True
        assert result == reference_domino_glitch_check(impl, n_cycles=32, seed=0)


class TestEstimatorModelProperties:
    @SETTINGS
    @given(
        net=aoi_networks(max_inputs=5, max_gates=10),
        gate_cap=st.floats(0.1, 3.0),
        clock=st.floats(0.0, 1.0),
        penalty=st.floats(0.0, 0.5),
    )
    def test_fast_equals_direct_under_random_models(
        self, net, gate_cap, clock, penalty
    ):
        model = DominoPowerModel(
            gate_cap=gate_cap,
            clock_cap_per_gate=clock,
            and_series_penalty=penalty,
        )
        ev = PhaseEvaluator(net, model=model, method="bdd")
        a = PhaseAssignment.all_negative(net.output_names())
        direct = estimate_power(net, a, model=model, method="bdd")
        assert ev.power(a) == pytest.approx(direct.total)

    @SETTINGS
    @given(net=aoi_networks(max_inputs=5, max_gates=10))
    def test_power_nonnegative_and_bounded(self, net):
        ev = PhaseEvaluator(net, method="bdd")
        for bits in range(min(1 << len(net.outputs), 8)):
            a = PhaseAssignment.from_bits(net.output_names(), bits)
            b = ev.breakdown(a)
            assert b.total >= 0.0
            # Each gate contributes at most its capacitance (p <= 1).
            assert b.domino <= b.n_gates * 1.0 + 1e-9

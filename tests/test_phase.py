"""Unit tests for repro.phase."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PhaseError
from repro.phase import Phase, PhaseAssignment, enumerate_assignments


class TestPhase:
    def test_flip(self):
        assert Phase.POSITIVE.flipped is Phase.NEGATIVE
        assert Phase.NEGATIVE.flipped is Phase.POSITIVE

    def test_invert_operator(self):
        assert ~Phase.POSITIVE is Phase.NEGATIVE


class TestPhaseAssignment:
    def test_all_positive(self):
        a = PhaseAssignment.all_positive(["f", "g"])
        assert a["f"] is Phase.POSITIVE
        assert a["g"] is Phase.POSITIVE

    def test_all_negative(self):
        a = PhaseAssignment.all_negative(["f"])
        assert a["f"] is Phase.NEGATIVE

    def test_unknown_output_raises(self):
        a = PhaseAssignment.all_positive(["f"])
        with pytest.raises(PhaseError):
            a["zzz"]

    def test_non_phase_value_rejected(self):
        with pytest.raises(PhaseError):
            PhaseAssignment({"f": "+"})

    def test_from_bits(self):
        a = PhaseAssignment.from_bits(["f", "g", "h"], 0b101)
        assert a["f"] is Phase.NEGATIVE
        assert a["g"] is Phase.POSITIVE
        assert a["h"] is Phase.NEGATIVE

    def test_as_bits_roundtrip(self):
        outputs = ["f", "g", "h"]
        for bits in range(8):
            a = PhaseAssignment.from_bits(outputs, bits)
            assert a.as_bits(outputs) == bits

    def test_flipped_single(self):
        a = PhaseAssignment.all_positive(["f", "g"])
        b = a.flipped("f")
        assert b["f"] is Phase.NEGATIVE
        assert b["g"] is Phase.POSITIVE
        # Original unchanged.
        assert a["f"] is Phase.POSITIVE

    def test_flipped_multiple(self):
        a = PhaseAssignment.all_positive(["f", "g"])
        b = a.flipped("f", "g")
        assert b.negative_outputs() == ["f", "g"]

    def test_flipped_unknown_raises(self):
        a = PhaseAssignment.all_positive(["f"])
        with pytest.raises(PhaseError):
            a.flipped("zzz")

    def test_with_phase(self):
        a = PhaseAssignment.all_positive(["f"])
        b = a.with_phase("f", Phase.NEGATIVE)
        assert b["f"] is Phase.NEGATIVE

    def test_with_phase_unknown_raises(self):
        a = PhaseAssignment.all_positive(["f"])
        with pytest.raises(PhaseError):
            a.with_phase("zzz", Phase.NEGATIVE)

    def test_equality_and_hash(self):
        a = PhaseAssignment.from_bits(["f", "g"], 1)
        b = PhaseAssignment.from_bits(["f", "g"], 1)
        c = PhaseAssignment.from_bits(["f", "g"], 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_random_is_deterministic(self):
        a = PhaseAssignment.random(["f", "g", "h"], seed=3)
        b = PhaseAssignment.random(["f", "g", "h"], seed=3)
        assert a == b

    def test_positive_negative_lists(self):
        a = PhaseAssignment.from_bits(["f", "g", "h"], 0b010)
        assert a.negative_outputs() == ["g"]

    def test_len_and_iter(self):
        a = PhaseAssignment.all_positive(["f", "g"])
        assert len(a) == 2
        assert set(a) == {"f", "g"}

    def test_unknown_output_keeps_the_mapping_contract(self):
        a = PhaseAssignment.from_bits(["f", "g"], 0b10)
        assert "f" in a
        assert "zz" not in a
        assert a.get("g") is Phase.NEGATIVE
        assert a.get("zz") is None
        assert a.get("zz", Phase.POSITIVE) is Phase.POSITIVE
        with pytest.raises(PhaseError):
            a["zz"]
        with pytest.raises(PhaseError):
            a.flipped("zz")
        with pytest.raises(PhaseError):
            a.with_phase("zz", Phase.NEGATIVE)

    def test_repeated_output_names_rejected(self):
        with pytest.raises(PhaseError):
            PhaseAssignment.all_positive(["f", "g", "f"])


NAMES = [f"o{i}" for i in range(10)]
NOT_A_PHASE = ("+", "-", None, 1, True)


def _bits_over(model, order):
    return sum(1 << i for i, po in enumerate(order) if model[po] is Phase.NEGATIVE)


def _check_against_model(a, model, order):
    """Every read of ``a`` equals the same read of the dict ``model``;
    ``order`` is a permutation of the outputs."""
    assert [a[po] for po in model] == list(model.values())
    assert list(a) == list(model)
    assert len(a) == len(model)
    assert dict(a.items()) == model
    assert a.negative_outputs() == [po for po, ph in model.items() if ph is Phase.NEGATIVE]
    assert a.as_bits(list(model)) == _bits_over(model, list(model))
    assert a.as_bits(order) == _bits_over(model, order)
    for po in model:
        assert po in a
        assert a.get(po) is model[po]
    assert "zz" not in a and a.get("zz", "default") == "default"
    reordered = PhaseAssignment({po: model[po] for po in order})
    assert a == reordered and reordered == a
    assert hash(a) == hash(reordered)
    for po in model:
        assert a != a.flipped(po)
    items = ", ".join(f"{po}{ph.value}" for po, ph in sorted(model.items()))
    assert repr(a) == f"PhaseAssignment({items})"
    restored = pickle.loads(pickle.dumps(a))
    assert restored == a and list(restored) == list(a)
    assert restored.as_bits(order) == a.as_bits(order)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_assignment_steps_match_a_dict_model(data):
    outputs = data.draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=len(NAMES)))
    phases = data.draw(
        st.lists(st.sampled_from(list(Phase)), min_size=len(outputs), max_size=len(outputs))
    )
    model = dict(zip(outputs, phases))
    a = PhaseAssignment(model)
    order = data.draw(st.permutations(outputs))
    _check_against_model(a, model, order)
    for _ in range(data.draw(st.integers(0, 10))):
        step = data.draw(st.sampled_from(["flipped", "with_phase", "from_bits", "random"]))
        if step == "flipped":
            pos = data.draw(st.lists(st.sampled_from(outputs), max_size=4)) if outputs else []
            a = a.flipped(*pos)
            model = dict(model)
            for po in pos:  # a repeated output flips back
                model[po] = model[po].flipped
        elif step == "with_phase" and outputs:
            po = data.draw(st.sampled_from(outputs))
            value = data.draw(st.sampled_from(list(Phase) + list(NOT_A_PHASE)))
            if not isinstance(value, Phase):
                with pytest.raises(PhaseError):
                    a.with_phase(po, value)
                continue
            a = a.with_phase(po, value)
            model = {**model, po: value}
        elif step == "from_bits":
            # bits past the output count are ignored; negative bits are
            # two's complement, so their sign extension sets every
            # remaining output
            bits = data.draw(st.integers(-(1 << 14), 1 << 14))
            outputs = data.draw(st.permutations(outputs))
            a = PhaseAssignment.from_bits(outputs, bits)
            model = {
                po: Phase.NEGATIVE if bits >> i & 1 else Phase.POSITIVE
                for i, po in enumerate(outputs)
            }
        elif step == "random":
            seed = data.draw(st.integers(0, 1 << 32))
            a = PhaseAssignment.random(outputs, seed=seed)
            rng = random.Random(seed)
            model = {po: rng.choice((Phase.POSITIVE, Phase.NEGATIVE)) for po in outputs}
        order = data.draw(st.permutations(outputs))
        _check_against_model(a, model, order)


class TestEnumerate:
    def test_enumeration_count(self):
        assert len(list(enumerate_assignments(["a", "b", "c"]))) == 8

    def test_enumeration_unique(self):
        seen = set(enumerate_assignments(["a", "b"]))
        assert len(seen) == 4

    def test_empty_output_list(self):
        assignments = list(enumerate_assignments([]))
        assert len(assignments) == 1

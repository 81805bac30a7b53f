"""The PhaseEvaluator's breakdown memo against a fresh evaluator.

A long-lived evaluator answers a pairwise search's query pattern (the
current assignment again and again, the same single flips from different
pairs, the same assignment over another output order) partly from its
memo.  Every answer must ``==`` the one a fresh evaluator computes for
that assignment, first time or repeated, and each call must hand back
its own object.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.bench.mcnc import spec_by_name
from repro.network.blif import parse_blif
from repro.network.netlist import LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.phase import PhaseAssignment
from repro.power import estimator
from repro.power.estimator import DominoPowerModel, PhaseEvaluator, PowerBreakdown

from helpers import large_pool_network, small_pool_blif

STEPS = 120


CIRCUITS: Dict[str, Callable[[], LogicNetwork]] = {
    **{
        f"small{index}": (
            lambda index=index: cleanup(to_aoi(parse_blif(small_pool_blif(index))))
        )
        for index in range(0, 40, 4)
    },
    "large56": lambda: large_pool_network(1),
    "x3": lambda: cleanup(to_aoi(spec_by_name("x3").build())),
}


def _reordered(assignment: PhaseAssignment) -> PhaseAssignment:
    """The same phases over the reversed output order, so the
    assignment's own bitmask differs from its bitmask in the
    evaluator's order."""
    return PhaseAssignment({po: assignment[po] for po in reversed(list(assignment))})


def _search_queries(outputs, seed: int) -> List[PhaseAssignment]:
    """A pairwise search's query pattern from a seeded start: each step
    measures the current assignment, both single flips of a random pair
    and the double flip, then sometimes commits one of them; the current
    assignment is also asked for over the reversed output order."""
    rng = random.Random(seed)
    current = PhaseAssignment.random(outputs, seed=seed)
    queries = [current]
    for _ in range(STEPS):
        i, j = rng.sample(outputs, 2)
        candidates = [
            current,
            current.flipped(i),
            current.flipped(j),
            current.flipped(i, j),
        ]
        queries.extend(candidates)
        queries.append(_reordered(current))
        if rng.random() < 0.2:
            current = rng.choice(candidates[1:])
    return queries


def _fresh_answers(
    network: LogicNetwork, outputs, queries: List[PhaseAssignment], model=None
) -> Dict[int, PowerBreakdown]:
    """Each distinct assignment's breakdown from a fresh evaluator, asked
    once per assignment and always in the evaluator's own order, so no
    answer comes from its memo."""
    fresh = PhaseEvaluator(network, model=model, method="bdd")
    assert fresh.outputs == outputs
    answers: Dict[int, PowerBreakdown] = {}
    for query in queries:
        bits = query.as_bits(outputs)
        if bits not in answers:
            answers[bits] = fresh.breakdown(PhaseAssignment.from_bits(outputs, bits))
    return answers


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_memo_answers_equal_a_fresh_evaluators(name):
    network = CIRCUITS[name]()
    ev = PhaseEvaluator(network, method="bdd")
    queries = _search_queries(ev.outputs, seed=len(name))
    expected = _fresh_answers(network, ev.outputs, queries)
    assert len(expected) < len(queries)  # the pattern repeats queries

    earlier: Dict[int, PowerBreakdown] = {}
    repeats = 0
    for query in queries:
        bits = query.as_bits(ev.outputs)
        got = ev.breakdown(query)
        assert got == expected[bits]
        assert ev.power(query) == expected[bits].total
        if bits in earlier:
            repeats += 1
            assert got is not earlier[bits]
        earlier[bits] = got
        # a caller that edits its answer changes no later one
        got.domino = -1.0
    assert repeats > 0
    for bits, answer in expected.items():
        assert ev.breakdown(PhaseAssignment.from_bits(ev.outputs, bits)) == answer


def test_memo_keeps_the_models_fields():
    network = CIRCUITS["large56"]()
    model = DominoPowerModel(clock_cap_per_gate=0.3, include_boundary_inverters=False)
    ev = PhaseEvaluator(network, model=model, method="bdd")
    queries = _search_queries(ev.outputs, seed=5)
    expected = _fresh_answers(network, ev.outputs, queries, model=model)
    for query in queries + queries:
        assert ev.breakdown(query) == expected[query.as_bits(ev.outputs)]


def test_memo_is_cleared_at_its_bound():
    config = GeneratorConfig(n_inputs=14, n_outputs=16, n_gates=86, seed=16, support_size=8)
    network = cleanup(to_aoi(random_control_network("o16", config)))
    ev = PhaseEvaluator(network, method="bdd")
    outputs = ev.outputs
    limit = estimator._MEMO_LIMIT
    queries = [PhaseAssignment.from_bits(outputs, bits) for bits in range(limit + 500)]
    expected = _fresh_answers(network, outputs, queries)
    sizes = []
    for query in queries:
        assert ev.breakdown(query) == expected[query.as_bits(outputs)]
        sizes.append(len(ev._breakdowns))
    assert max(sizes) == limit
    assert sizes[-1] == 500
    # answers asked again after the memo was cleared are still equal
    for query in queries[:100] + queries[-100:]:
        assert ev.breakdown(query) == expected[query.as_bits(outputs)]
    assert len(ev._breakdowns) <= limit

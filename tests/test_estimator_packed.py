"""The packed PhaseEvaluator query against the per-output mask loop it replaced.

:func:`reference` rebuilds the unpacked algorithm from public pieces: one
boolean mask per (output, phase) from the reference DFS
``helpers.cone_masks``,
ORed output by output, then the same dot products and the same
left-to-right output-inverter sum.  The packed query must agree with it
exactly (``==``, not approx) on every field, on circuits whose slot and
source counts sit on either side of a 64-bit word boundary and whose
output counts sit on either side of an 8-output union table.
"""

from __future__ import annotations

import random
import sys
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.bench.figures import figure3_network
from repro.bench.generators import GeneratorConfig, random_control_network
from repro.errors import PhaseError
from repro.network.blif import parse_blif
from repro.network.duplication import Polarity
from repro.network.netlist import GateType, LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.phase import Phase, PhaseAssignment
from repro.power.activity import boundary_output_inverter_switching
from repro.power.estimator import (
    DominoPowerModel,
    PhaseEvaluator,
    PowerBreakdown,
    estimate_power,
)

from helpers import cone_masks, pack_mask, small_pool_blif

N_RANDOM = 200
N_WALK = 200

MODELS = {
    "default": DominoPowerModel(),
    "clocked-no-boundary": DominoPowerModel(
        clock_cap_per_gate=0.3, include_boundary_inverters=False
    ),
}

Query = Callable[[PhaseAssignment], Tuple[int, PowerBreakdown]]


def reference(ev: PhaseEvaluator) -> Query:
    """``assignment -> (area, breakdown)`` computed the unpacked way."""
    space, model = ev.space, ev.model
    masks = {}
    for po, driver in ev.network.outputs:
        for phase, pol in ((Phase.POSITIVE, Polarity.POS), (Phase.NEGATIVE, Polarity.NEG)):
            ref = space.resolve(driver, pol)
            masks[(po, phase)] = cone_masks(space, ref) + (ref,)

    def query(assignment: PhaseAssignment) -> Tuple[int, PowerBreakdown]:
        gates = np.zeros(space.n_slots, dtype=bool)
        invs = np.zeros(len(space.sources), dtype=bool)
        negative_refs = []
        for po in ev.outputs:
            g, i, ref = masks[(po, assignment[po])]
            gates |= g
            invs |= i
            if assignment[po] is Phase.NEGATIVE:
                negative_refs.append(ref)
        input_inv = output_inv = 0.0
        if model.include_boundary_inverters:
            input_inv = float(np.dot(invs, ev.source_inv_cost))
            for ref in negative_refs:
                output_inv += (
                    boundary_output_inverter_switching(ev.ref_probability(ref))
                    * model.inverter_cap
                )
        n_gates, n_invs = int(gates.sum()), int(invs.sum())
        return n_gates + n_invs + len(negative_refs), PowerBreakdown(
            domino=float(np.dot(gates, ev.slot_probs * ev.slot_caps)),
            input_inverters=input_inv,
            output_inverters=output_inv,
            clock=model.clock_cap_per_gate * n_gates,
            n_gates=n_gates,
            n_input_inverters=n_invs,
            n_output_inverters=len(negative_refs),
            probability_method=ev.probability_result.method,
        )

    return query


def _generated(name: str, **knobs) -> LogicNetwork:
    return cleanup(to_aoi(random_control_network(name, GeneratorConfig(**knobs))))


def _gateless() -> LogicNetwork:
    net = LogicNetwork("gateless")
    for pi in ("a", "b", "c"):
        net.add_input(pi)
    net.add_gate("na", GateType.NOT, ["a"])
    net.add_gate("bb", GateType.BUF, ["b"])
    net.add_output("na")
    net.add_output("bb")
    net.add_output("c")
    return net


def _fig3() -> LogicNetwork:
    return cleanup(to_aoi(figure3_network()))


def _boundary_sources(n_inputs: int, seed: int) -> LogicNetwork:
    return _generated(
        f"i{n_inputs}", n_inputs=n_inputs, n_outputs=12, n_gates=60, seed=seed,
        support_size=32, pi_literal_negation_probability=0.5,
    )


#: Output counts on both sides of one and two 8-output union tables.
CHUNK_SIDES = (1, 7, 8, 9, 16, 17)

#: name -> (network factory, pinned (slot count, source count); None = not pinned).
#: Slot counts are always even; 62..128 and source counts 63..65 put
#: the last word partly or exactly full.
CIRCUITS: Dict[str, Tuple[Callable[[], LogicNetwork], Tuple[Optional[int], Optional[int]]]] = {
    "fig3": (_fig3, (6, None)),
    "small_random": (
        lambda: _generated("small", n_inputs=10, n_outputs=4, n_gates=30, seed=7),
        (None, None),
    ),
    "medium_random": (
        lambda: _generated(
            "medium", n_inputs=16, n_outputs=6, n_gates=60, seed=11, support_size=10
        ),
        (None, None),
    ),
    "large56": (
        lambda: _generated(
            "large56", n_inputs=92, n_outputs=56, n_gates=550, seed=1,
            support_size=12, or_probability=0.45,
        ),
        (None, None),
    ),
    "slots62": (lambda: _generated("s62", n_inputs=12, n_outputs=3, n_gates=28, seed=0), (62, None)),
    "slots64": (lambda: _generated("s64", n_inputs=12, n_outputs=8, n_gates=24, seed=0), (64, None)),
    "slots66": (lambda: _generated("s66", n_inputs=12, n_outputs=3, n_gates=30, seed=0), (66, None)),
    "slots128": (lambda: _generated("s128", n_inputs=12, n_outputs=6, n_gates=58, seed=0), (128, None)),
    "sources63": (lambda: _boundary_sources(63, seed=0), (None, 63)),
    "sources64": (lambda: _boundary_sources(64, seed=4), (None, 64)),
    "sources65": (lambda: _boundary_sources(65, seed=4), (None, 65)),
    "gateless": (_gateless, (0, 3)),
    **{
        f"outputs{k}": (
            lambda k=k: _generated(
                f"o{k}", n_inputs=14, n_outputs=k, n_gates=5 * k + 6, seed=k,
                support_size=8,
            ),
            (None, None),
        )
        for k in CHUNK_SIDES
    },
}


def _input_probs(name: str, net: LogicNetwork) -> Optional[Dict[str, float]]:
    return {pi: 0.9 for pi in net.inputs} if name == "fig3" else None


def _queries(outputs: List[str], seed: int) -> List[PhaseAssignment]:
    """Seeded random assignments, then a walk of single and double flips."""
    rng = random.Random(seed)
    queries = [
        PhaseAssignment.random(outputs, seed=seed * 1000 + k) for k in range(N_RANDOM)
    ]
    current = PhaseAssignment.all_positive(outputs)
    for _ in range(N_WALK):
        size = min(rng.choice((1, 2)), len(outputs))
        current = current.flipped(*rng.sample(outputs, size))
        queries.append(current)
    return queries


@pytest.fixture(scope="module")
def evaluators() -> Dict[Tuple[str, str], PhaseEvaluator]:
    out = {}
    for name, (build, _counts) in CIRCUITS.items():
        net = build()
        for label, model in MODELS.items():
            out[(name, label)] = PhaseEvaluator(
                net, input_probs=_input_probs(name, net), model=model, method="bdd"
            )
    return out


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, counts) in CIRCUITS.items() if counts != (None, None))
)
def test_word_boundary_counts(evaluators, name):
    slots, sources = CIRCUITS[name][1]
    space = evaluators[(name, "default")].space
    if slots is not None:
        assert space.n_slots == slots
    if sources is not None:
        assert len(space.sources) == sources


@pytest.mark.parametrize("k", CHUNK_SIDES)
def test_chunk_boundary_output_counts(evaluators, k):
    assert len(evaluators[(f"outputs{k}", "default")].outputs) == k


def _reference_rows(ev: PhaseEvaluator) -> List[int]:
    """Each (output, phase) row as the reference DFS's two masks, packed."""
    rows = []
    for _po, driver in ev.network.outputs:
        for pol in (Polarity.POS, Polarity.NEG):
            gates, invs = cone_masks(ev.space, ev.space.resolve(driver, pol))
            rows.append(pack_mask(gates) | pack_mask(invs) << ev._inv_shift)
    return rows


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_rows_equal_reference_cones(evaluators, name):
    ev = evaluators[(name, "default")]
    assert ev._rows == _reference_rows(ev)


def test_small_pool_rows_equal_reference_cones():
    for index in range(40):
        ev = PhaseEvaluator(cleanup(to_aoi(parse_blif(small_pool_blif(index)))), method="bdd")
        assert ev._rows == _reference_rows(ev), index


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_packed_query_equals_reference(evaluators, name, model):
    ev = evaluators[(name, model)]
    expected = reference(ev)
    for query in _queries(ev.outputs, seed=len(name)):
        area, breakdown = expected(query)
        assert ev.area(query) == area
        assert ev.breakdown(query) == breakdown
        assert ev.power(query) == breakdown.total


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_packed_total_matches_explicit_transform(evaluators, name, model):
    ev = evaluators[(name, model)]
    for seed in range(2):
        query = PhaseAssignment.random(ev.outputs, seed=seed)
        direct = estimate_power(
            ev.network, query, input_probs=_input_probs(name, ev.network),
            model=MODELS[model], method="bdd",
        )
        assert ev.breakdown(query).total == pytest.approx(direct.total, rel=1e-9)


def test_missing_output_raises_phase_error(evaluators):
    ev = evaluators[("medium_random", "default")]
    partial = PhaseAssignment({po: Phase.POSITIVE for po in ev.outputs[1:]})
    with pytest.raises(PhaseError):
        ev.area(partial)
    with pytest.raises(PhaseError):
        ev.breakdown(partial)


def test_threads_sharing_one_evaluator_get_sequential_answers(evaluators):
    # the expected answers come from a second evaluator, so the threads
    # share a cold memo and race on its misses and inserts
    expected_ev = evaluators[("large56", "default")]
    ev = PhaseEvaluator(expected_ev.network, method="bdd")
    queries = _queries(ev.outputs, seed=99)
    expected = [(expected_ev.area(q), expected_ev.breakdown(q)) for q in queries]
    results: Dict[int, list] = {}
    start = threading.Barrier(4)

    def worker(index: int) -> None:
        # half the threads walk the queries backwards, so neighbouring
        # calls on the shared evaluator differ
        order = queries if index % 2 == 0 else queries[::-1]
        start.wait()
        got = [(ev.area(q), ev.breakdown(q)) for q in order]
        results[index] = got if index % 2 == 0 else got[::-1]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results.get(k) == expected for k in range(4)] == [True] * 4

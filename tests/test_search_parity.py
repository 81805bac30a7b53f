"""Search parity: the full outcome of every phase-assignment search, pinned.

``tests/golden/search_parity.json`` records, on five circuits, what each
search the flow can run returns: the minimum-area baseline (exhaustive
and hill climb), every built-in optimizer strategy under four budgets,
and the Section 6 timing-aware search in each mode.  A record holds the
assignment, the figures of merit, the evaluation count, the method and
strategy names and the whole commit history, one step per
``[pair output, pair output, moves, cost, candidate power, committed]``
list.  Floats are compared exactly after a JSON round trip, so a
rewrite of a search loop passes only if it makes the same evaluator
calls and the same decisions in the same order.

Full enumeration is left out on the largest circuit, and so is the
forced pairwise loop, which the default ``pairwise`` already runs there.

Regenerate (only for a change that is meant to alter a search) with::

    PYTHONPATH=src python tests/test_search_parity.py --write
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, Iterator, Tuple

import pytest

from repro.bench.figures import figure3_network
from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core.min_area import minimize_area
from repro.core.timing_aware import PhaseTimingModel, minimize_power_timing_aware
from repro.network.netlist import GateType, LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.optimize import OptimizerBudget, make_strategy, strategy_names
from repro.phase import PhaseAssignment
from repro.power.estimator import PhaseEvaluator

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "search_parity.json")

#: (run label, strategy name, params).  ``pairwise-loop`` forces the
#: Section 4.1 loop on circuits the default would enumerate.
STRATEGIES: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("anneal", "anneal", {}),
    ("exhaustive", "exhaustive", {}),
    ("greedy-flip", "greedy-flip", {}),
    ("groupwise", "groupwise", {}),
    ("pairwise", "pairwise", {}),
    ("pairwise-loop", "pairwise", {"exhaustive_limit": 0}),
    ("random", "random", {}),
)

#: Circuits above every exhaustive limit.
LARGE = frozenset({"wide"})


def _generated(name: str, **knobs: Any) -> LogicNetwork:
    return cleanup(to_aoi(random_control_network(name, GeneratorConfig(**knobs))))


def _or1() -> LogicNetwork:
    net = LogicNetwork("one")
    net.add_input("a")
    net.add_input("b")
    net.add_gate("g", GateType.OR, ["a", "b"])
    net.add_output("g")
    return net


def _evaluators() -> Iterator[Tuple[str, PhaseEvaluator]]:
    fig3 = cleanup(to_aoi(figure3_network()))
    yield "fig3", PhaseEvaluator(
        fig3, input_probs={pi: 0.9 for pi in fig3.inputs}, method="bdd"
    )
    yield "or1", PhaseEvaluator(
        _or1(), input_probs={"a": 0.9, "b": 0.9}, method="bdd"
    )
    yield "small", PhaseEvaluator(
        _generated("small", n_inputs=10, n_outputs=4, n_gates=30, seed=7),
        method="bdd",
    )
    yield "medium", PhaseEvaluator(
        _generated(
            "medium", n_inputs=16, n_outputs=6, n_gates=60, seed=11, support_size=10
        ),
        method="bdd",
    )
    yield "wide", PhaseEvaluator(
        _generated("wide", n_inputs=22, n_outputs=13, n_gates=84, seed=5),
        method="bdd",
    )


def _history(history) -> list:
    return [
        [
            *step.pair,
            "".join(move.value for move in step.moves),
            step.cost,
            step.candidate_power,
            bool(step.committed),
        ]
        for step in history
    ]


def _assignment(assignment: PhaseAssignment) -> Dict[str, str]:
    return {po: phase.value for po, phase in assignment.items()}


def _area_record(result) -> Dict[str, Any]:
    return {
        "assignment": _assignment(result.assignment),
        "area": result.area,
        "method": result.method,
        "evaluations": result.evaluations,
    }


def _power_record(result) -> Dict[str, Any]:
    return {
        "assignment": _assignment(result.assignment),
        "power": result.power,
        "initial_power": result.initial_power,
        "method": result.method,
        "strategy": result.strategy,
        "evaluations": result.evaluations,
        "history": _history(result.history),
    }


def _timing_record(result) -> Dict[str, Any]:
    return {
        "assignment": _assignment(result.assignment),
        "power": result.power,
        "delay": result.delay,
        "objective": result.objective,
        "target_delay": result.target_delay,
        "initial_power": result.initial_power,
        "initial_delay": result.initial_delay,
        "meets_target": bool(result.meets_target),
        "method": result.method,
        "evaluations": result.evaluations,
        "history": _history(result.history),
    }


def _runs(circuit: str, ev: PhaseEvaluator) -> Dict[str, Any]:
    large = circuit in LARGE
    runs: Dict[str, Any] = {}

    if not large:
        runs["area/exhaustive"] = _area_record(
            minimize_area(ev, exhaustive_limit=len(ev.outputs))
        )
    runs["area/hill-climb"] = _area_record(minimize_area(ev, exhaustive_limit=0))
    runs["area/hill-climb-single"] = _area_record(
        minimize_area(ev, exhaustive_limit=0, pair_moves=False)
    )

    ma = minimize_area(ev).assignment
    ways = (
        ("default", {}),
        ("initial-ma", {"initial": ma}),
        ("max-evaluations-7", {"budget": OptimizerBudget(max_evaluations=7)}),
        ("tolerance-0.01", {"budget": OptimizerBudget(tolerance=0.01)}),
    )
    for label, name, params in STRATEGIES:
        strategy = make_strategy(name, **params)
        for way, kwargs in ways:
            if large and (
                label == "pairwise-loop"
                or (label == "exhaustive" and "budget" not in kwargs)
            ):
                continue
            runs[f"optimize/{label}/{way}"] = _power_record(
                strategy.optimize(ev, seed=0, **kwargs)
            )

    start = PhaseAssignment.all_positive(ev.outputs)
    delay = PhaseTimingModel(ev).critical_delay(start)
    targets = (
        ("loose", {"target_delay": 2.0 * delay}),
        ("tight", {"target_delay": 0.8 * delay}),
        ("slack", {"slack_fraction": 0.9}),
    )
    for mode in ("auto", "exhaustive", "pairwise"):
        if large and mode == "exhaustive":
            continue
        for target, kwargs in targets:
            runs[f"timing/{mode}/{target}"] = _timing_record(
                minimize_power_timing_aware(ev, method=mode, **kwargs)
            )
    return runs


def _compute() -> Dict[str, Dict[str, Any]]:
    # the JSON round trip is part of the record: floats are written with
    # repr and so come back bit-identical
    return json.loads(json.dumps({name: _runs(name, ev) for name, ev in _evaluators()}))


@pytest.fixture(scope="module")
def computed() -> Dict[str, Dict[str, Any]]:
    return _compute()


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_covers_every_builtin_strategy():
    assert {name for _, name, _ in STRATEGIES} <= set(strategy_names())


def test_same_circuits_and_runs(computed, golden):
    assert sorted(computed) == sorted(golden)
    for circuit in golden:
        assert sorted(computed[circuit]) == sorted(golden[circuit]), circuit


@pytest.mark.parametrize("kind", ["area", "optimize", "timing"])
def test_search_outputs_match_golden(kind, computed, golden):
    for circuit, runs in golden.items():
        for run, expected in runs.items():
            if run.startswith(kind + "/"):
                assert computed[circuit][run] == expected, f"{circuit} {run}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_search_parity.py --write")
    # one run per line keeps the file small and its diffs readable
    circuits = [
        f" {json.dumps(circuit)}: {{\n"
        + ",\n".join(
            f"  {json.dumps(run)}: {json.dumps(record, separators=(',', ':'))}"
            for run, record in sorted(runs.items())
        )
        + "\n }"
        for circuit, runs in sorted(_compute().items())
    ]
    with open(GOLDEN, "w") as f:
        f.write("{\n" + ",\n".join(circuits) + "\n}\n")
    print(f"wrote {GOLDEN}")

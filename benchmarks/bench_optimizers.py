"""Optimizer-strategy shoot-out: power vs evaluations per strategy.

The :mod:`repro.optimize` registry turns the MP phase-assignment search
into a benchmarkable axis; this bench runs every registered strategy on
the same seeded circuits and reports the two numbers that matter —
final power and how many evaluator calls it took — plus the same
comparison under a fixed shared :class:`~repro.optimize.OptimizerBudget`
(do cleverer strategies win when evaluations are scarce?).
"""

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.network.ops import cleanup, to_aoi
from repro.optimize import OptimizerBudget, make_strategy, strategy_names
from repro.power.estimator import PhaseEvaluator

from conftest import print_block, record_bench

#: Params keeping exponential strategies tractable at bench sizes.
_BENCH_PARAMS = {
    "pairwise": {"exhaustive_limit": 0},  # force the paper's loop
    "anneal": {"steps": 128},
}

#: Timed rounds per bench; each searches fresh evaluators, built
#: untimed, so no round is answered from an earlier round's memo.
_ROUNDS = 20


def _evaluator(seed: int, n_outputs: int = 7) -> PhaseEvaluator:
    cfg = GeneratorConfig(
        n_inputs=14, n_outputs=n_outputs, n_gates=50, seed=seed, support_size=10
    )
    net = cleanup(to_aoi(random_control_network(f"opt{seed}", cfg)))
    return PhaseEvaluator(net, method="bdd")


def _fresh(seeds, n_outputs: int = 7):
    """A ``benchmark.pedantic`` setup: new evaluators for one round."""
    return lambda: (([_evaluator(seed, n_outputs) for seed in seeds],), {})


def _strategies():
    return [
        (name, make_strategy(name, **_BENCH_PARAMS.get(name, {})))
        for name in strategy_names()
    ]


@pytest.mark.benchmark(group="optimizers")
def bench_power_vs_evaluations(benchmark):
    """Unbudgeted: each strategy's natural power/evaluations trade-off."""
    strategies = _strategies()

    def run(evaluators):
        table = {}
        for name, strategy in strategies:
            powers, evals = [], []
            for ev in evaluators:
                result = strategy.optimize(ev, seed=0)
                powers.append(result.power)
                evals.append(result.evaluations)
            table[name] = (
                sum(powers) / len(powers),
                sum(evals) / len(evals),
            )
        return table

    table = benchmark.pedantic(run, setup=_fresh(range(4)), rounds=_ROUNDS)
    optimum = table["exhaustive"][0]
    body = f"{'strategy':<12} {'avg power':>10} {'avg evals':>10} {'vs opt':>8}\n"
    body += "\n".join(
        f"{name:<12} {power:>10.3f} {evals:>10.1f} "
        f"{100.0 * (power - optimum) / optimum:>7.1f}%"
        for name, (power, evals) in sorted(table.items(), key=lambda kv: kv[1][0])
    )
    print_block("Power vs evaluations per registered strategy (7 outputs)", body)
    for name, (power, evals) in sorted(table.items()):
        record_bench(
            "optimizers",
            {
                "mode": "unbudgeted",
                "strategy": name,
                "avg_power": round(power, 4),
                "avg_evals": round(evals, 1),
                "vs_optimal_pct": round(100.0 * (power - optimum) / optimum, 2),
            },
        )

    # Exhaustive is the global optimum; nothing may beat it.
    assert all(power >= optimum - 1e-9 for power, _ in table.values())
    # The paper's heuristic must stay within 10% of optimal at a
    # fraction of the evaluations.
    pw_power, pw_evals = table["pairwise"]
    assert pw_power <= optimum * 1.10 + 1e-9
    assert pw_evals < table["exhaustive"][1]


@pytest.mark.benchmark(group="optimizers")
def bench_fixed_budget(benchmark):
    """Budgeted: every strategy gets the same 24-evaluation allowance."""
    budget = OptimizerBudget(max_evaluations=24)
    strategies = _strategies()

    def run(evaluators):
        table = {}
        for name, strategy in strategies:
            powers, evals = [], []
            for ev in evaluators:
                result = strategy.optimize(ev, budget=budget, seed=0)
                powers.append(result.power / result.initial_power)
                evals.append(result.evaluations)
            table[name] = (sum(powers) / len(powers), max(evals))
        return table

    setup = _fresh(range(50, 54), n_outputs=9)
    table = benchmark.pedantic(run, setup=setup, rounds=_ROUNDS)
    body = f"{'strategy':<12} {'power/start':>12} {'max evals':>10}\n"
    body += "\n".join(
        f"{name:<12} {ratio:>12.4f} {evals:>10}"
        for name, (ratio, evals) in sorted(table.items(), key=lambda kv: kv[1][0])
    )
    print_block("Equal 24-evaluation budget (9 outputs)", body)
    for name, (ratio, evals) in sorted(table.items()):
        record_bench(
            "optimizers",
            {
                "mode": "budget24",
                "strategy": name,
                "power_vs_start": round(ratio, 4),
                "max_evals": evals,
            },
        )

    for name, (ratio, evals) in table.items():
        assert evals <= 24, f"{name} overspent its budget ({evals})"
        assert ratio <= 1.0 + 1e-9, f"{name} regressed past its start"

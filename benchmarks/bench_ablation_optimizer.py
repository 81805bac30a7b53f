"""Ablation — the Section 4.1 pairwise heuristic vs alternatives.

DESIGN.md calls out three design choices to ablate:

1. the pairwise-K search vs brute-force exhaustive search (quality);
2. the pairwise-K search vs random sampling (is the cost function
   actually informative?);
3. the commit-if-power-drops rule (monotonicity of the committed
   trajectory).
"""

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.network.ops import cleanup, to_aoi
from repro.optimize import make_strategy
from repro.power.estimator import PhaseEvaluator

from conftest import print_block

#: Timed rounds per bench; each searches fresh evaluators, built
#: untimed, so no round is answered from an earlier round's memo.
_ROUNDS = 20


def _evaluator(seed: int, n_outputs: int = 6) -> PhaseEvaluator:
    cfg = GeneratorConfig(
        n_inputs=14, n_outputs=n_outputs, n_gates=50, seed=seed, support_size=10
    )
    net = cleanup(to_aoi(random_control_network(f"abl{seed}", cfg)))
    return PhaseEvaluator(net, method="bdd")


def _fresh(seeds, n_outputs: int = 6):
    """A ``benchmark.pedantic`` setup: new evaluators for one round."""
    return lambda: (([_evaluator(seed, n_outputs) for seed in seeds],), {})


@pytest.mark.benchmark(group="ablation-optimizer")
def bench_pairwise_vs_exhaustive(benchmark):
    def run(evaluators):
        rows = []
        for ev in evaluators:
            pw = make_strategy("pairwise", exhaustive_limit=0).optimize(ev)
            ex = make_strategy("exhaustive").optimize(ev)
            rows.append((pw.power, ex.power, pw.evaluations, ex.evaluations))
        return rows

    rows = benchmark.pedantic(run, setup=_fresh(range(5)), rounds=_ROUNDS)
    body = f"{'pairwise':>10} {'exhaustive':>11} {'pw evals':>9} {'ex evals':>9}\n"
    body += "\n".join(
        f"{p:>10.3f} {e:>11.3f} {pe:>9} {ee:>9}" for p, e, pe, ee in rows
    )
    print_block("Pairwise-K vs exhaustive (6 outputs, 64 assignments)", body)

    for pw_power, ex_power, pw_evals, ex_evals in rows:
        # Quality: within 10% of the global optimum.
        assert pw_power <= ex_power * 1.10 + 1e-9
        # Cost: strictly fewer power evaluations than brute force.
        assert pw_evals < ex_evals


@pytest.mark.benchmark(group="ablation-optimizer")
def bench_pairwise_vs_random(benchmark):
    def run(evaluators):
        rows = []
        for ev in evaluators:
            pw = make_strategy("pairwise", exhaustive_limit=0).optimize(ev)
            rnd = make_strategy("random", n_samples=pw.evaluations).optimize(
                ev, seed=1
            )
            rows.append((pw.power, rnd.power))
        return rows

    setup = _fresh(range(100, 105), n_outputs=8)
    rows = benchmark.pedantic(run, setup=setup, rounds=_ROUNDS)
    body = "\n".join(f"pairwise={p:.3f}  random={r:.3f}" for p, r in rows)
    print_block("Pairwise-K vs random search (equal evaluation budget)", body)

    wins = sum(1 for p, r in rows if p <= r + 1e-9)
    assert wins >= 3  # the cost function must be informative


@pytest.mark.benchmark(group="ablation-optimizer")
def bench_commit_rule_monotonicity(benchmark):
    strategy = make_strategy("pairwise", exhaustive_limit=0)

    def fresh_evaluator():
        return (_evaluator(7, n_outputs=8),), {}

    result = benchmark.pedantic(
        strategy.optimize, setup=fresh_evaluator, rounds=_ROUNDS
    )
    committed = [r.candidate_power for r in result.history if r.committed]
    body = (
        f"initial={result.initial_power:.3f} final={result.power:.3f} "
        f"commits={len(committed)} / {len(result.history)} pairs"
    )
    print_block("Commit-if-power-drops trajectory", body)
    # Committed powers must be strictly decreasing (step 6 of Sec 4.1).
    assert all(b < a for a, b in zip(committed, committed[1:])) or len(committed) <= 1
    assert result.power <= result.initial_power

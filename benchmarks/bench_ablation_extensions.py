"""Ablation — the paper's proposed extensions.

1. **Timing-aware phase assignment** (Section 6 future work): compare
   the unconstrained power optimum against the timing-constrained one
   and quantify the power/delay trade-off the paper anticipates.
2. **Group-extended cost function** (Section 4.1's "greater degree of
   interaction"): pairwise K vs K over output triples.
"""

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core.timing_aware import PhaseTimingModel, minimize_power_timing_aware
from repro.network.ops import cleanup, to_aoi
from repro.optimize import make_strategy
from repro.phase import PhaseAssignment
from repro.power.estimator import PhaseEvaluator

from conftest import print_block


def _evaluator(seed: int, n_outputs: int = 8):
    cfg = GeneratorConfig(
        n_inputs=16, n_outputs=n_outputs, n_gates=60, seed=seed, support_size=10,
        or_probability=0.7,
    )
    net = cleanup(to_aoi(random_control_network(f"ext{seed}", cfg)))
    return PhaseEvaluator(net, method="bdd")


@pytest.mark.benchmark(group="ablation-extensions")
def bench_timing_aware_tradeoff(benchmark):
    evaluators = [_evaluator(seed) for seed in range(4)]

    def run():
        rows = []
        for ev in evaluators:
            model = PhaseTimingModel(ev)
            start = PhaseAssignment.all_positive(ev.outputs)
            target = model.critical_delay(start)
            loose = minimize_power_timing_aware(ev, target_delay=1e9)
            tight = minimize_power_timing_aware(
                ev, target_delay=target, penalty_weight=1e6
            )
            rows.append(
                (loose.power, loose.delay, tight.power, tight.delay, target)
            )
        return rows

    rows = benchmark(run)
    body = (
        f"{'P(loose)':>9} {'D(loose)':>9} {'P(tight)':>9} {'D(tight)':>9} {'target':>8}\n"
        + "\n".join(
            f"{lp:>9.2f} {ld:>9.2f} {tp:>9.2f} {td:>9.2f} {t:>8.2f}"
            for lp, ld, tp, td, t in rows
        )
    )
    print_block("Timing-aware phase assignment (Section 6 extension)", body)

    for loose_p, loose_d, tight_p, tight_d, target in rows:
        # The constrained solution must honour the target...
        assert tight_d <= target + 1e-9
        # ...and the unconstrained one must be at least as low power.
        assert loose_p <= tight_p + 1e-9


@pytest.mark.benchmark(group="ablation-extensions")
def bench_group_cost_extension(benchmark):
    evaluators = [_evaluator(seed + 50, n_outputs=9) for seed in range(4)]

    def run():
        rows = []
        for ev in evaluators:
            pw = make_strategy("pairwise", exhaustive_limit=0).optimize(ev)
            gw3 = make_strategy("groupwise", group_size=3).optimize(ev)
            rows.append((pw.power, gw3.power, pw.evaluations, gw3.evaluations))
        return rows

    rows = benchmark(run)
    body = f"{'pairwise':>9} {'group-3':>9} {'pw evals':>9} {'g3 evals':>9}\n" + "\n".join(
        f"{p:>9.3f} {g:>9.3f} {pe:>9} {ge:>9}" for p, g, pe, ge in rows
    )
    print_block("Cost function K: pairs vs triples (Section 4.1 extension)", body)

    for pw_power, gw_power, _pe, _ge in rows:
        assert gw_power <= pw_power * 1.10 + 1e-9

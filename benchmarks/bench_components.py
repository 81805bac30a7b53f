"""Micro-benchmarks of the reproduction's computational kernels.

Not a paper experiment — tracks the throughput of the pieces the
iterative Figure 6 loop depends on: BDD construction, probability
evaluation, the phase transform, mask-based power queries (random
access and the hill climb's one-flip pattern), one pairwise pair pick,
and the vectorised Monte-Carlo simulator.
"""

import numpy as np
import pytest

from conftest import record_bench

from repro.bdd.builder import build_node_bdds
from repro.bench.generators import GeneratorConfig, random_control_network
from repro.bench.mcnc import spec_by_name
from repro.core.cost import CostModelData, best_pair_and_combo, masked_cost_stack
from repro.network.duplication import phase_transform
from repro.network.ops import cleanup, to_aoi
from repro.phase import PhaseAssignment
from repro.power.estimator import PhaseEvaluator
from repro.power.probability import uniform_input_probabilities
from repro.power.simulator import simulate_power


def _record_kernel(benchmark, kernel, **extra):
    """Append this kernel's mean wall time to BENCH_components.json."""
    record = {"kernel": kernel, **extra}
    try:
        record["mean_s"] = round(float(benchmark.stats.stats.mean), 6)
    except AttributeError:  # pragma: no cover - plugin internals moved
        pass
    record_bench("components", record)


@pytest.fixture(scope="module")
def apex7_aoi():
    return cleanup(to_aoi(spec_by_name("apex7").build()))


@pytest.fixture(scope="module")
def apex7_evaluator(apex7_aoi):
    return PhaseEvaluator(apex7_aoi, method="bdd")


@pytest.mark.benchmark(group="kernels")
def bench_bdd_construction(benchmark, apex7_aoi):
    bdds = benchmark(build_node_bdds, apex7_aoi)
    _record_kernel(benchmark, "bdd_construction", nodes=bdds.manager.node_count)
    assert bdds.manager.node_count > 0


@pytest.mark.benchmark(group="kernels")
def bench_bdd_probabilities(benchmark, apex7_aoi):
    bdds = build_node_bdds(apex7_aoi)
    probs = benchmark(bdds.probabilities, uniform_input_probabilities(apex7_aoi))
    _record_kernel(benchmark, "bdd_probabilities", signals=len(probs))
    assert all(0.0 <= p <= 1.0 for p in probs.values())


@pytest.mark.benchmark(group="kernels")
def bench_phase_transform(benchmark, apex7_aoi):
    assignment = PhaseAssignment.random(apex7_aoi.output_names(), seed=1)
    impl = benchmark(phase_transform, apex7_aoi, assignment)
    _record_kernel(benchmark, "phase_transform", gates=impl.n_gates)
    assert impl.n_gates > 0


@pytest.mark.benchmark(group="kernels")
def bench_evaluator_power_query(benchmark, apex7_evaluator):
    """The inner-loop operation of the Section 4.1 search."""
    assignments = [
        PhaseAssignment.random(apex7_evaluator.outputs, seed=s) for s in range(16)
    ]

    def run():
        return [apex7_evaluator.power(a) for a in assignments]

    powers = benchmark(run)
    _record_kernel(benchmark, "evaluator_power_query", queries=16)
    assert len(powers) == 16


@pytest.mark.benchmark(group="kernels")
def bench_evaluator_area_flip(benchmark):
    """The MA hill climb's query: one output flipped from a fixed base,
    on a 56-output generated circuit."""
    network = cleanup(
        to_aoi(
            random_control_network(
                "flip56",
                GeneratorConfig(
                    n_inputs=92, n_outputs=56, n_gates=550, seed=1,
                    support_size=12, or_probability=0.45,
                ),
            )
        )
    )
    evaluator = PhaseEvaluator(network, method="bdd")
    outputs = evaluator.outputs
    base = PhaseAssignment.random(outputs, seed=1)
    assignments = [base.flipped(outputs[k % len(outputs)]) for k in range(64)]

    def run():
        return [evaluator.area(a) for a in assignments]

    areas = benchmark(run)
    _record_kernel(benchmark, "evaluator_area_flip", queries=64)
    assert len(areas) == 64


@pytest.mark.benchmark(group="kernels")
def bench_pairwise_step(benchmark):
    """One Section 4.1 pair pick over a prebuilt cost stack on x3."""
    network = cleanup(to_aoi(spec_by_name("x3").build()))
    evaluator = PhaseEvaluator(network, method="bdd")
    data = CostModelData.from_network(network)
    start = PhaseAssignment.all_positive(evaluator.outputs)
    avg = np.array(
        [evaluator.average_cone_probability(start, po) for po in evaluator.outputs]
    )
    n = len(data.outputs)
    remaining = np.triu(np.ones((n, n), dtype=bool), k=1)
    stack = masked_cost_stack(data, avg, remaining)
    i, j, _combo, cost = benchmark(best_pair_and_combo, data, avg, remaining, stack)
    _record_kernel(benchmark, "pairwise_step", outputs=n)
    assert i < j and np.isfinite(cost)


@pytest.mark.benchmark(group="kernels")
def bench_monte_carlo_simulation(benchmark, apex7_aoi):
    impl = phase_transform(
        apex7_aoi, PhaseAssignment.all_positive(apex7_aoi.output_names())
    )
    sim = benchmark(simulate_power, impl, None, None, 2048, 0)
    _record_kernel(benchmark, "monte_carlo_simulation", n_vectors=2048)
    assert sim.energy_per_cycle > 0

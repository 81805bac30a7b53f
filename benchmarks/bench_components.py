"""Micro-benchmarks of the reproduction's computational kernels.

Not a paper experiment — tracks the throughput of the pieces the
iterative Figure 6 loop depends on: BDD construction, probability
evaluation, the phase transform, the evaluator build and its packed
power queries (random access and the hill climb's one-flip pattern),
one whole minimum-area hill climb, the pairwise loop's per-commit pair
ranking and one step of its pair walk (``pairwise_walk_rank`` and
``pairwise_walk_pick`` on x3), one whole pairwise MP search, and the
Monte-Carlo power simulation of an unmapped block over packed words.
Also the unit-delay glitch report and the Property 2.2 check, the
two-level minimisation every BLIF input goes through (an
already-minimum cover and a wide one), the transform and mapping of
one variant (``transform_small`` and ``transform_large56``), the
timing-repair loop and the power measurement of one small mapped
design, and one structural validation of a 56-output network.

``pairwise_step`` in ``BENCH_components.json`` timed the flat
``argmin`` over the whole cost stack that the pair walk replaced; its
entries stay as history, and no bench records it any more.
"""

import itertools
import random

import numpy as np
import pytest

from conftest import mean_seconds, record_bench

from repro.bdd.builder import build_node_bdds
from repro.bench.generators import GeneratorConfig, random_control_network
from repro.bench.mcnc import spec_by_name
from repro.core.cost import CostModelData, PairWalk, best_pair_and_combo
from repro.core.min_area import minimize_area
from repro.domino.mapper import map_implementation, simulate_mapped_power
from repro.domino.timing import default_timing_target, resize_to_meet_timing
from repro.network.duplication import phase_transform
from repro.network.minimize import minimize_cover
from repro.network.netlist import SopCover
from repro.network.ops import cleanup, to_aoi
from repro.optimize.strategies import PairwiseStrategy
from repro.phase import PhaseAssignment
from repro.power.estimator import PhaseEvaluator
from repro.power.glitch import domino_glitch_check, unit_delay_glitch_report
from repro.power.probability import uniform_input_probabilities
from repro.power.simulator import simulate_power


def _record_kernel(benchmark, kernel, **extra):
    """Append this kernel's mean wall time to BENCH_components.json."""
    record = {"kernel": kernel, **extra}
    mean = mean_seconds(benchmark)
    if mean is not None:
        record["mean_s"] = mean
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
    """The inner-loop operation of the Section 4.1 search: 16 power
    queries of random assignments.  Each round gets 16 assignments of
    seeds no earlier round used, built untimed, so every query is
    computed, not answered from the evaluator's memo."""
    outputs = apex7_evaluator.outputs
    seeds = itertools.count()

    def fresh_assignments():
        return ([PhaseAssignment.random(outputs, seed=next(seeds)) for _ in range(16)],), {}

    def run(assignments):
        return [apex7_evaluator.power(a) for a in assignments]

    powers = benchmark.pedantic(run, setup=fresh_assignments, rounds=200)
    _record_kernel(benchmark, "evaluator_power_query", queries=16)
    assert len(powers) == 16


@pytest.fixture(scope="module")
def large56_aoi():
    """A 56-output generated circuit, the size of perfbench's large
    pool, prepared as the flow prepares it."""
    return cleanup(
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


@pytest.fixture(scope="module")
def large56_evaluator(large56_aoi):
    """Evaluator of the 56-output generated circuit."""
    return PhaseEvaluator(large56_aoi, method="bdd")


@pytest.mark.benchmark(group="kernels")
def bench_evaluator_build_large56(benchmark, large56_aoi):
    """One evaluator build (polarity space, exact probabilities, every
    (output, phase) cone and the union tables) of the 56-output
    generated circuit."""
    evaluator = benchmark(PhaseEvaluator, large56_aoi, method="bdd")
    _record_kernel(
        benchmark, "evaluator_build_large56", slots=evaluator.space.n_slots
    )
    assert len(evaluator.outputs) == 56


@pytest.mark.benchmark(group="kernels")
def bench_evaluator_area_flip(benchmark, large56_evaluator):
    """The MA hill climb's query: one output flipped from a fixed base,
    on a 56-output generated circuit."""
    evaluator = large56_evaluator
    outputs = evaluator.outputs
    base = PhaseAssignment.random(outputs, seed=1)
    assignments = [base.flipped(outputs[k % len(outputs)]) for k in range(64)]

    def run():
        return [evaluator.area(a) for a in assignments]

    areas = benchmark(run)
    _record_kernel(benchmark, "evaluator_area_flip", queries=64)
    assert len(areas) == 64


@pytest.mark.benchmark(group="kernels")
def bench_hill_climb_large(benchmark, large56_evaluator):
    """One minimum-area hill climb (the MA search of a flow, default
    settings) on the 56-output generated circuit."""
    result = benchmark(minimize_area, large56_evaluator)
    _record_kernel(
        benchmark, "hill_climb_large", outputs=56, evaluations=result.evaluations
    )
    assert result.method == "hill-climb" and result.evaluations > 0


@pytest.fixture(scope="module")
def x3_pair_costs():
    """x3's Section 4.1 cost data and its A_k under the all-positive
    assignment."""
    network = cleanup(to_aoi(spec_by_name("x3").build()))
    evaluator = PhaseEvaluator(network, method="bdd")
    start = PhaseAssignment.all_positive(evaluator.outputs)
    avg = np.array(
        [evaluator.average_cone_probability(start, po) for po in evaluator.outputs]
    )
    return CostModelData.from_network(network), avg


def _all_pairs(data):
    n = len(data.outputs)
    return np.triu(np.ones((n, n), dtype=bool), k=1)


@pytest.mark.benchmark(group="kernels")
def bench_pairwise_walk_rank(benchmark, x3_pair_costs):
    """The pairwise loop's ranking after a commit, on x3 (99 outputs,
    4,851 pairs): a new walk's cost stack and finite entries, and the
    first chunk its first pick ranks."""
    data, avg = x3_pair_costs

    def fresh_mask():
        return (_all_pairs(data),), {}

    def run(remaining):
        return best_pair_and_combo(data, avg, remaining, PairWalk(data, avg, remaining))

    i, j, _combo, cost = benchmark.pedantic(run, setup=fresh_mask, rounds=200)
    _record_kernel(benchmark, "pairwise_walk_rank", outputs=len(data.outputs))
    assert i < j and np.isfinite(cost)


@pytest.mark.benchmark(group="kernels")
def bench_pairwise_walk_pick(benchmark, x3_pair_costs):
    """One step of the pairwise loop's pair walk on x3, on a walk whose
    first chunk is ranked: the pointer step and the pair's retirement."""
    data, avg = x3_pair_costs

    def ranked_walk():
        walk = PairWalk(data, avg, _all_pairs(data))
        best_pair_and_combo(data, avg, walk.remaining, walk)
        return (walk,), {}

    def run(walk):
        return best_pair_and_combo(data, avg, walk.remaining, walk)

    i, j, _combo, cost = benchmark.pedantic(run, setup=ranked_walk, rounds=500)
    _record_kernel(benchmark, "pairwise_walk_pick", outputs=len(data.outputs))
    assert i < j and np.isfinite(cost)


@pytest.mark.benchmark(group="kernels")
def bench_pairwise_search_large56(benchmark, large56_aoi, large56_evaluator):
    """The MP search of a flow on the 56-output generated circuit: the
    pairwise strategy (cost data, pair picks and power queries) from
    the MA assignment.  Each round searches on a fresh evaluator, built
    untimed, as each flow does."""
    start = minimize_area(large56_evaluator).assignment
    strategy = PairwiseStrategy()

    def fresh_evaluator():
        evaluator = PhaseEvaluator(large56_aoi, method="bdd")
        initial = PhaseAssignment.from_bits(
            evaluator.outputs, start.as_bits(evaluator.outputs)
        )
        return (evaluator,), {"initial": initial}

    result = benchmark.pedantic(strategy.optimize, setup=fresh_evaluator, rounds=20)
    _record_kernel(
        benchmark, "pairwise_search_large56", outputs=56, evaluations=result.evaluations
    )
    assert result.method == "pairwise" and result.power <= result.initial_power


@pytest.mark.benchmark(group="kernels")
def bench_monte_carlo_simulation(benchmark, apex7_aoi):
    impl = phase_transform(
        apex7_aoi, PhaseAssignment.all_positive(apex7_aoi.output_names())
    )
    sim = benchmark(simulate_power, impl, None, None, 2048, 0)
    _record_kernel(benchmark, "monte_carlo_simulation", n_vectors=2048)
    assert sim.energy_per_cycle > 0


@pytest.mark.benchmark(group="kernels")
def bench_glitch_report_apex7(benchmark, apex7_aoi):
    """The unit-delay glitch report of apex7 as a static circuit, 1024
    cycles."""
    report = benchmark(unit_delay_glitch_report, apex7_aoi, None, 1024, 0)
    _record_kernel(benchmark, "glitch_report_apex7", n_cycles=1024)
    assert report.glitch_transitions > 0


@pytest.mark.benchmark(group="kernels")
def bench_glitch_check_apex7(benchmark, apex7_aoi):
    """The Property 2.2 check of apex7's all-positive domino block, 512
    cycles."""
    impl = phase_transform(
        apex7_aoi, PhaseAssignment.all_positive(apex7_aoi.output_names())
    )
    monotone = benchmark(domino_glitch_check, impl, None, 512, 0)
    _record_kernel(benchmark, "glitch_check_apex7", n_cycles=512)
    assert monotone


@pytest.mark.benchmark(group="kernels")
def bench_minimize_cover_or5(benchmark):
    """100 covers of a 5-input OR, the costliest cover of generated BLIF
    inputs; each is already minimum and comes back unchanged."""
    covers = [
        SopCover(["-" * i + "1" + "-" * (4 - i) for i in range(5)], "1")
        for _ in range(100)
    ]

    def run():
        return [minimize_cover(cover, 5) for cover in covers]

    results = benchmark(run)
    _record_kernel(benchmark, "minimize_cover_or5", covers=100)
    assert all(r.cover is c for r, c in zip(results, covers))


@pytest.mark.benchmark(group="kernels")
def bench_minimize_cover_wide(benchmark):
    """A seeded random 10-input, 12-cube cover that minimises to fewer
    cubes: the full prime generation and cover selection."""
    rng = random.Random(1)
    cover = SopCover(
        ["".join(rng.choice("01-") for _ in range(10)) for _ in range(12)], "1"
    )
    result = benchmark(minimize_cover, cover, 10)
    _record_kernel(benchmark, "minimize_cover_wide", inputs=10, cubes=12)
    assert result.improved


@pytest.fixture(scope="module")
def small_aoi():
    """Small-pool circuit 6 as perfbench generates it, prepared."""
    rng = random.Random(6)
    n_outputs = rng.randint(2, 8)
    config = GeneratorConfig(
        n_inputs=rng.randint(8, 24),
        n_outputs=n_outputs,
        n_gates=rng.randint(4, 10) * n_outputs,
        seed=6,
    )
    return cleanup(to_aoi(random_control_network("S6", config)))


@pytest.fixture(scope="module")
def small_design(small_aoi):
    """The unsized, all-positive mapped design of small-pool circuit 6."""
    return map_implementation(
        phase_transform(small_aoi, PhaseAssignment.all_positive(small_aoi.output_names()))
    )


@pytest.mark.benchmark(group="kernels")
def bench_transform_small(benchmark, small_aoi):
    """The flow's ``transform_map`` of one variant of the small-pool
    circuit: the phase transform over the evaluator's polarity space,
    then technology mapping."""
    space = PhaseEvaluator(small_aoi, method="bdd").space
    assignment = PhaseAssignment.random(small_aoi.output_names(), seed=1)

    def run():
        return map_implementation(phase_transform(small_aoi, assignment, space))

    design = benchmark(run)
    _record_kernel(benchmark, "transform_small", cells=design.n_cells)
    assert design.n_cells > 0


@pytest.mark.benchmark(group="kernels")
def bench_transform_large56(benchmark, large56_aoi, large56_evaluator):
    """The flow's ``transform_map`` of one variant of the 56-output
    generated circuit, as ``transform_small`` does it."""
    space = large56_evaluator.space
    assignment = PhaseAssignment.random(large56_aoi.output_names(), seed=1)

    def run():
        return map_implementation(phase_transform(large56_aoi, assignment, space))

    design = benchmark(run)
    _record_kernel(benchmark, "transform_large56", cells=design.n_cells)
    assert design.n_cells > 0


@pytest.mark.benchmark(group="kernels")
def bench_resize_small(benchmark, small_design):
    """The timing-repair loop (Table 2's resize step) on the small-pool
    design, from the unsized design every round."""
    design = small_design
    unsized = dict(design.size_factors)
    target = default_timing_target(design)

    def run():
        design.size_factors = dict(unsized)
        return resize_to_meet_timing(design, target)

    result = benchmark(run)
    design.size_factors = unsized
    _record_kernel(benchmark, "resize_small", cells=design.n_cells)
    assert result.iterations > 0


@pytest.mark.benchmark(group="kernels")
def bench_simulate_mapped_small(benchmark, small_design):
    """The flow's power measurement (``simulate_mapped_power``, 2048
    vectors) of the small-pool design."""
    power = benchmark(simulate_mapped_power, small_design, None, 2048, 0)
    _record_kernel(benchmark, "simulate_mapped_small", cells=small_design.n_cells, n_vectors=2048)
    assert power["total"] > 0


@pytest.mark.benchmark(group="kernels")
def bench_validate_large(benchmark, large56_aoi):
    """One structural validation (fanins, covers, cycle check) of the
    56-output AOI network."""
    benchmark(large56_aoi.validate)
    _record_kernel(benchmark, "validate_large", nodes=len(large56_aoi.nodes))

"""Table 1 — MA vs MP synthesis at PI probability 0.5 (untimed flow).

Paper claims reproduced in shape:

* average power savings ~18% (paper row range: -2.8% .. 34.1%);
* average area penalty ~12% (range 1.3% .. 48%);
* min-power phases differ from min-area phases on most circuits;
* frg1 (only 3 outputs, 8 possible assignments) still yields large
  savings with a large area overhead.
"""

import time

import pytest

from repro.experiments.tables import format_table_result, run_table

from conftest import print_block, record_bench

SMALL = ("frg1", "apex7", "x1")
LARGE = ("industry1", "industry2", "industry3", "x3")
#: Each body runs this many times and records its least wall time, so a
#: slow spell of a shared host does not read as a regression.
ROUNDS = 3


def _best_of_rounds(benchmark, run):
    """``run()`` for :data:`ROUNDS` rounds: its last result and the least
    wall time of a round."""
    walls = []

    def body():
        started = time.perf_counter()
        result = run()
        walls.append(time.perf_counter() - started)
        return result

    result = benchmark.pedantic(body, rounds=ROUNDS, iterations=1)
    return result, min(walls)


@pytest.mark.benchmark(group="table1")
@pytest.mark.parametrize("circuit", SMALL + LARGE)
def bench_table1_circuit(benchmark, circuit, quick_vectors):
    result, wall_s = _best_of_rounds(
        benchmark,
        lambda: run_table(timed=False, circuits=[circuit], n_vectors=quick_vectors),
    )
    print_block(f"Table 1 row: {circuit}", format_table_result(result))
    row = result.rows[0].flow
    record_bench(
        "table1_untimed",
        {
            "circuit": circuit,
            "n_vectors": quick_vectors,
            "wall_s": round(wall_s, 3),
            "power_savings_pct": round(row.power_savings_percent, 3),
            "area_penalty_pct": round(row.area_penalty_percent, 3),
        },
    )

    # MP must never be worse than MA under the optimisation objective;
    # measured (simulated) power should not regress beyond noise.
    assert row.mp.estimated_power <= row.ma.estimated_power + 1e-9
    assert row.power_savings_percent >= -5.0
    # Area penalty is bounded: duplication can at most double the block.
    assert row.area_penalty_percent <= 110.0
    # Sizes in the calibrated ballpark of the paper (loose factor 2).
    paper = result.rows[0].paper
    assert paper is not None
    assert 0.5 * paper.ma_size <= row.ma.size <= 2.0 * paper.ma_size


@pytest.mark.benchmark(group="table1")
def bench_table1_small_suite_averages(benchmark, quick_vectors):
    """Aggregate over the fast public circuits: positive average savings."""

    result, wall_s = _best_of_rounds(
        benchmark,
        lambda: run_table(timed=False, circuits=list(SMALL), n_vectors=quick_vectors),
    )
    print_block("Table 1 (public circuits)", format_table_result(result))
    avg = result.measured_averages
    record_bench(
        "table1_untimed",
        {
            "circuit": "+".join(SMALL),
            "n_vectors": quick_vectors,
            "wall_s": round(wall_s, 3),
            "power_savings_pct": round(avg["power_savings_pct"], 3),
            "area_penalty_pct": round(avg["area_penalty_pct"], 3),
        },
    )
    assert avg["power_savings_pct"] > 5.0
    assert avg["area_penalty_pct"] >= 0.0

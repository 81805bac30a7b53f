"""Table 1 / Table 2 experiments: the MA-vs-MP suite runs.

Runs the full Figure 6 flow (min-area baseline vs min-power phase
assignment, technology mapping, optional timing repair, Monte-Carlo
power measurement) over the calibrated benchmark suite and prints the
rows in the paper's layout next to the paper's own numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bench.mcnc import (
    TABLE1_PAPER_AVERAGES,
    TABLE1_SUITE,
    TABLE2_PAPER_AVERAGES,
    TABLE2_SUITE,
    BenchmarkSpec,
    PaperRow,
)
from repro.core.batch import ProgressCallback, run_many
from repro.core.config import FlowConfig
from repro.core.flow import FlowResult
from repro.errors import BatchError

#: Circuits small enough for quick CI-style runs.
QUICK_CIRCUITS = ("frg1", "apex7", "x1")


@dataclass
class TableRow:
    spec: BenchmarkSpec
    flow: FlowResult
    paper: Optional[PaperRow]
    runtime_s: float
    cached: bool = False  # served whole from the persistent store


@dataclass
class TableResult:
    timed: bool
    rows: List[TableRow]

    @property
    def n_cached(self) -> int:
        return sum(1 for row in self.rows if row.cached)

    @property
    def measured_averages(self) -> Dict[str, float]:
        if not self.rows:
            return {"area_penalty_pct": 0.0, "power_savings_pct": 0.0}
        return {
            "area_penalty_pct": sum(r.flow.area_penalty_percent for r in self.rows)
            / len(self.rows),
            "power_savings_pct": sum(r.flow.power_savings_percent for r in self.rows)
            / len(self.rows),
        }

    @property
    def paper_averages(self) -> Dict[str, float]:
        return TABLE2_PAPER_AVERAGES if self.timed else TABLE1_PAPER_AVERAGES


def run_table(
    timed: bool = False,
    circuits: Optional[List[str]] = None,
    n_vectors: int = 4096,
    seed: int = 0,
    quick: bool = False,
    input_probability: float = 0.5,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    store: Optional["ArtifactStore"] = None,  # noqa: F821
    optimizer: Optional[str] = None,
    optimizer_params: Optional[Dict[str, Any]] = None,
) -> TableResult:
    """Run (a subset of) Table 1 (untimed) or Table 2 (timed).

    The suite goes through :func:`repro.core.batch.run_many`, so
    ``jobs > 1`` runs circuits in parallel with identical results (the
    whole flow is seeded per circuit, not per process).  With a
    ``store``, circuits already archived for this exact config are
    served from disk without executing any synthesis stage
    (``TableRow.cached``) and produce bit-identical table numbers.
    ``optimizer`` / ``optimizer_params`` pick the MP search strategy
    from the :mod:`repro.optimize` registry (default: the paper's
    ``pairwise`` heuristic) — how the optimizer-smoke CI job reruns the
    tables once per registered strategy.
    """
    suite = TABLE2_SUITE if timed else TABLE1_SUITE
    selected: List[BenchmarkSpec] = []
    for spec in suite:
        if circuits is not None and spec.name not in circuits:
            continue
        if quick and spec.name not in QUICK_CIRCUITS:
            continue
        selected.append(spec)

    config = FlowConfig(
        input_probability=input_probability,
        timed=timed,
        n_vectors=n_vectors,
        seed=seed,
    )
    if optimizer is not None:
        config = config.replace(optimizer=optimizer)
    if optimizer_params is not None:
        config = config.replace(optimizer_params=dict(optimizer_params))
    batch = run_many(
        selected,
        config,
        jobs=jobs,
        progress=progress,
        store=store,
    )
    if batch.failures:
        details = "; ".join(
            f"{item.name}: {(item.error or '?').splitlines()[0]}"
            for item in batch.failures
        )
        first = batch.failures[0]
        raise BatchError(
            f"table suite failed for {batch.n_failed} circuit(s): {details}\n\n"
            f"{first.name} traceback:\n{first.error}",
            failures=batch.failures,
        )

    rows: List[TableRow] = []
    for spec, item in zip(selected, batch.items):
        paper = spec.table2 if timed else spec.table1
        rows.append(
            TableRow(
                spec=spec,
                flow=item.result,
                paper=paper,
                runtime_s=item.runtime_s,
                cached=item.cached,
            )
        )
    return TableResult(timed=timed, rows=rows)


def format_table_result(result: TableResult) -> str:
    title = (
        "Table 2 — timed synthesis (transistor resizing), PI probability 0.5"
        if result.timed
        else "Table 1 — synthesis, PI probability 0.5"
    )
    header = (
        f"{'Ckt':<11} {'#PI':>4} {'#PO':>4} "
        f"{'MA Size':>8} {'MA Pwr':>7} {'MP Size':>8} {'MP Pwr':>7} "
        f"{'%Area':>6} {'%Pwr':>6}  {'paper %A':>8} {'paper %P':>8} {'sec':>6}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for row in result.rows:
        f = row.flow
        paper_a = f"{row.paper.area_penalty_pct:>8.1f}" if row.paper else "     n/a"
        paper_p = f"{row.paper.power_savings_pct:>8.1f}" if row.paper else "     n/a"
        lines.append(
            f"{f.name:<11} {f.n_inputs:>4} {f.n_outputs:>4} "
            f"{f.ma.size:>8} {f.ma.power_ma:>7.2f} {f.mp.size:>8} "
            f"{f.mp.power_ma:>7.2f} {f.area_penalty_percent:>6.1f} "
            f"{f.power_savings_percent:>6.1f}  {paper_a} {paper_p} "
            f"{row.runtime_s:>6.1f}"
        )
    lines.append("-" * len(header))
    m = result.measured_averages
    p = result.paper_averages
    lines.append(
        f"{'Average':<11} {'':>4} {'':>4} {'':>8} {'':>7} {'':>8} {'':>7} "
        f"{m['area_penalty_pct']:>6.1f} {m['power_savings_pct']:>6.1f}  "
        f"{p['area_penalty_pct']:>8.1f} {p['power_savings_pct']:>8.1f}"
    )
    return "\n".join(lines)

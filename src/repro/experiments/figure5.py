"""Figure 5 experiment: phase assignment changes switching dramatically.

On the f/g example (f = NOT((a+b)+(c·d)), g = (a+b)+(c·d)) with input
signal probabilities 0.9, the paper's second realisation has ~75% fewer
transitions than the minimum-area one, even though it is larger.  This
experiment enumerates all four phase assignments, reports analytic and
Monte-Carlo switching for each (domino block + boundary inverters,
exactly Figure 5's accounting), and compares the best against the
minimum-area choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.bench.figures import FIGURE5_INPUT_PROBABILITY, figure3_network
from repro.network.duplication import phase_transform
from repro.network.ops import cleanup, to_aoi
from repro.phase import PhaseAssignment, enumerate_assignments
from repro.power.estimator import DominoPowerModel, PhaseEvaluator
from repro.power.simulator import measure_switching_counts


@dataclass
class Figure5Row:
    assignment: PhaseAssignment
    n_gates: int
    domino_switching: float
    input_inverter_switching: float
    output_inverter_switching: float
    total_estimated: float
    total_measured: float
    area_cells: int


@dataclass
class Figure5Result:
    rows: List[Figure5Row]
    input_probability: float
    min_area_row: Figure5Row = field(init=False)
    min_power_row: Figure5Row = field(init=False)

    def __post_init__(self) -> None:
        self.min_area_row = min(self.rows, key=lambda r: (r.area_cells, r.total_estimated))
        self.min_power_row = min(self.rows, key=lambda r: r.total_estimated)

    @property
    def switching_reduction_percent(self) -> float:
        base = self.min_area_row.total_estimated
        if base == 0:
            return 0.0
        return 100.0 * (base - self.min_power_row.total_estimated) / base


def run_figure5(
    input_probability: float = FIGURE5_INPUT_PROBABILITY,
    n_vectors: int = 65536,
    seed: int = 0,
) -> Figure5Result:
    net = cleanup(to_aoi(figure3_network()))
    input_probs = {pi: input_probability for pi in net.inputs}
    model = DominoPowerModel(gate_cap=1.0, inverter_cap=1.0, current_scale=1.0)
    evaluator = PhaseEvaluator(net, input_probs=input_probs, model=model, method="bdd")

    rows: List[Figure5Row] = []
    for assignment in enumerate_assignments(net.output_names()):
        breakdown = evaluator.breakdown(assignment)
        impl = phase_transform(net, assignment)
        measured = measure_switching_counts(
            impl, input_probs=input_probs, n_vectors=n_vectors, seed=seed
        )
        rows.append(
            Figure5Row(
                assignment=assignment,
                n_gates=breakdown.n_gates,
                domino_switching=breakdown.domino,
                input_inverter_switching=breakdown.input_inverters,
                output_inverter_switching=breakdown.output_inverters,
                total_estimated=breakdown.total,
                total_measured=measured["total"],
                area_cells=breakdown.area_cells,
            )
        )
    return Figure5Result(rows=rows, input_probability=input_probability)


def format_figure5(result: Figure5Result) -> str:
    lines = [
        "Figure 5 — switching of all phase assignments "
        f"(input probability {result.input_probability})",
        f"{'assignment':<28} {'cells':>5} {'domino':>8} {'inv_in':>7} "
        f"{'inv_out':>7} {'total':>8} {'MC total':>9}",
    ]
    for row in result.rows:
        tag = ""
        if row is result.min_area_row:
            tag += " <- min area"
        if row is result.min_power_row:
            tag += " <- min power"
        lines.append(
            f"{str(row.assignment):<28} {row.area_cells:>5} "
            f"{row.domino_switching:>8.4f} {row.input_inverter_switching:>7.4f} "
            f"{row.output_inverter_switching:>7.4f} {row.total_estimated:>8.4f} "
            f"{row.total_measured:>9.4f}{tag}"
        )
    lines.append(
        f"switching reduction of min-power vs min-area: "
        f"{result.switching_reduction_percent:.1f}%  (paper: ~75%)"
    )
    return "\n".join(lines)

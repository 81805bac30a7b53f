"""The overall power-minimisation flow (paper Figure 6 and Section 5).

One call runs the experimental pipeline of the paper for one circuit:

1. technology-independent cleanup (lower to AND/OR/NOT, sweep);
2. (sequential circuits) enhanced-MFVS partitioning + fixed-point
   latch probabilities;
3. build the phase evaluator (BDD probabilities with the domino
   variable ordering, Monte-Carlo fallback);
4. minimum-area phase assignment (the MA baseline of [15]);
5. minimum-power phase assignment (the paper's heuristic);
6. phase transform + technology mapping of both;
7. (timed flow) transistor resizing to meet a timing target;
8. Monte-Carlo power measurement of both mapped designs.

The result, :class:`FlowResult`, is the circuit's Table 1 / Table 2
record and nothing more — exactly what
:func:`repro.report.flow_result_to_dict` writes — so a pool result, a
store hit and a fleet result are one shape.  The mapped artefacts stay
in process, on ``Pipeline.run(...).context.builds["MA"]`` / ``["MP"]``.

Since the pipeline redesign the implementation lives in
:mod:`repro.core.pipeline` (staged, store-backed) and
:func:`run_flow` is a thin keyword-compatible wrapper; new code should
prefer a :class:`repro.core.config.FlowConfig` plus
``Pipeline().run(...)`` (one circuit, artefacts included) or
:func:`repro.core.batch.run_many` (many circuits, in parallel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.network.netlist import LogicNetwork
from repro.phase import PhaseAssignment
from repro.domino.timing import ResizeResult


@dataclass
class SynthesisVariant:
    """One synthesis outcome (MA or MP): its assignment and measurements.

    The mapped design it was measured on is not part of the record; an
    in-process caller reads it from ``Pipeline.run(...).context.builds``.
    """

    label: str
    assignment: PhaseAssignment
    size: int
    power_ma: float  # the tables' "Pwr" column (calibrated mA figure)
    estimated_power: float
    resize: Optional[ResizeResult] = None
    critical_delay: float = 0.0


@dataclass
class FlowResult:
    """Full MA-vs-MP comparison for one circuit."""

    name: str
    n_inputs: int
    n_outputs: int
    ma: SynthesisVariant
    mp: SynthesisVariant
    timed: bool
    probability_method: str

    @property
    def area_penalty_percent(self) -> float:
        if self.ma.size == 0:
            return 0.0
        return 100.0 * (self.mp.size - self.ma.size) / self.ma.size

    @property
    def power_savings_percent(self) -> float:
        if self.ma.power_ma == 0:
            return 0.0
        return 100.0 * (self.ma.power_ma - self.mp.power_ma) / self.ma.power_ma

    def row(self) -> Dict[str, object]:
        """One table row in the paper's column layout."""
        return {
            "ckt": self.name,
            "n_pis": self.n_inputs,
            "n_pos": self.n_outputs,
            "ma_size": self.ma.size,
            "ma_pwr": self.ma.power_ma,
            "mp_size": self.mp.size,
            "mp_pwr": self.mp.power_ma,
            "area_penalty_pct": self.area_penalty_percent,
            "pwr_savings_pct": self.power_savings_percent,
        }


def run_flow(network: LogicNetwork, **fields: Any) -> FlowResult:
    """Run the complete MA-vs-MP experiment on one circuit.

    The keywords are :class:`repro.core.config.FlowConfig` fields, each
    defaulting as in ``FlowConfig()`` (for example ``n_vectors``,
    ``seed``, ``timed``, ``minimize``, ``strash``); an unknown one
    raises :class:`repro.errors.ConfigError`.  This is a
    backwards-compatible wrapper over the staged
    :class:`repro.core.pipeline.Pipeline`.
    """
    from repro.core.config import FlowConfig
    from repro.core.pipeline import Pipeline

    return Pipeline(FlowConfig().replace(**fields)).run(network).flow


def format_table(rows: List[Dict[str, object]], title: str) -> str:
    """Render flow rows in the paper's table layout."""
    header = (
        f"{'Ckt':<12} {'#PIs':>5} {'#POs':>5} "
        f"{'MA Size':>8} {'MA Pwr':>8} {'MP Size':>8} {'MP Pwr':>8} "
        f"{'%AreaPen':>9} {'%PwrSav':>8}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    pens: List[float] = []
    savs: List[float] = []
    for r in rows:
        lines.append(
            f"{str(r['ckt']):<12} {r['n_pis']:>5} {r['n_pos']:>5} "
            f"{r['ma_size']:>8} {r['ma_pwr']:>8.2f} {r['mp_size']:>8} "
            f"{r['mp_pwr']:>8.2f} {r['area_penalty_pct']:>9.1f} "
            f"{r['pwr_savings_pct']:>8.1f}"
        )
        pens.append(float(r["area_penalty_pct"]))
        savs.append(float(r["pwr_savings_pct"]))
    if rows:
        lines.append("-" * len(header))
        avg_pen = sum(pens) / len(pens)
        avg_sav = sum(savs) / len(savs)
        lines.append(f"{'Average':<12} {'':>5} {'':>5} {'':>8} {'':>8} {'':>8} {'':>8} "
                     f"{avg_pen:>9.1f} {avg_sav:>8.1f}")
    return "\n".join(lines)

"""The benchmark suite of the paper's Tables 1 and 2.

Each entry pairs the paper's reported numbers (for EXPERIMENTS.md
comparison) with a seeded generator configuration whose PI/PO counts
match the paper exactly and whose gate count is calibrated so the
minimum-area mapped size lands near the paper's "MA Size" column.

The real MCNC circuits and Intel control blocks are substituted by
synthetic control-logic networks — see DESIGN.md for the substitution
rationale.  Dropping genuine BLIF files into the same flow is a
one-liner with :func:`repro.network.blif.load_blif`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.network.netlist import LogicNetwork
from repro.bench.generators import GeneratorConfig, random_control_network


@dataclass(frozen=True)
class PaperRow:
    """Numbers the paper reports for one circuit in one table."""

    ma_size: int
    ma_power: float
    mp_size: int
    mp_power: float
    area_penalty_pct: float
    power_savings_pct: float


@dataclass(frozen=True)
class BenchmarkSpec:
    """One suite circuit: generator recipe + paper reference data."""

    name: str
    description: str
    n_inputs: int
    n_outputs: int
    n_gates: int
    seed: int
    support_size: int = 12
    outputs_per_window: int = 3
    inverter_probability: float = 0.05
    or_probability: float = 0.6
    window_dominance: float = 0.8
    table1: Optional[PaperRow] = None
    table2: Optional[PaperRow] = None

    def build(self) -> LogicNetwork:
        config = GeneratorConfig(
            n_inputs=self.n_inputs,
            n_outputs=self.n_outputs,
            n_gates=self.n_gates,
            seed=self.seed,
            support_size=self.support_size,
            outputs_per_window=self.outputs_per_window,
            inverter_probability=self.inverter_probability,
            or_probability=self.or_probability,
            window_dominance=self.window_dominance,
        )
        return random_control_network(self.name, config)


#: Table 1 rows as printed in the paper (PI prob 0.5, untimed flow).
TABLE1_SUITE: Tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec(
        name="industry1",
        description="Control Logic",
        n_inputs=127,
        n_outputs=122,
        n_gates=1250,
        seed=1101,
        support_size=12,
        outputs_per_window=3,
        or_probability=0.45,
        table1=PaperRow(1849, 12.47, 1970, 9.65, 6.5, 22.6),
    ),
    BenchmarkSpec(
        name="industry2",
        description="Control Logic",
        n_inputs=97,
        n_outputs=86,
        n_gates=1680,
        seed=1202,
        support_size=13,
        outputs_per_window=3,
        or_probability=0.5,
        window_dominance=0.5,
        table1=PaperRow(2272, 13.74, 2348, 14.13, 3.3, -2.8),
    ),
    BenchmarkSpec(
        name="industry3",
        description="Control Logic",
        n_inputs=117,
        n_outputs=199,
        n_gates=1020,
        seed=1303,
        support_size=11,
        outputs_per_window=4,
        or_probability=0.75,
        table1=PaperRow(1589, 11.77, 1699, 8.56, 6.9, 27.3),
    ),
    BenchmarkSpec(
        name="apex7",
        description="Public Domain",
        n_inputs=79,
        n_outputs=36,
        n_gates=230,
        seed=2101,
        support_size=11,
        outputs_per_window=3,
        table1=PaperRow(394, 3.71, 443, 2.98, 12.4, 19.5),
        table2=PaperRow(452, 3.72, 485, 3.04, 7.3, 18.3),
    ),
    BenchmarkSpec(
        name="frg1",
        description="Public Domain",
        n_inputs=31,
        n_outputs=3,
        n_gates=78,
        seed=2225,
        support_size=14,
        outputs_per_window=3,
        table1=PaperRow(98, 1.30, 145, 0.86, 48.0, 34.1),
        table2=PaperRow(98, 3.20, 147, 1.91, 50.0, 40.3),
    ),
    BenchmarkSpec(
        name="x1",
        description="Public Domain",
        n_inputs=87,
        n_outputs=28,
        n_gates=255,
        seed=2303,
        support_size=12,
        outputs_per_window=3,
        or_probability=0.3,
        table1=PaperRow(404, 2.57, 421, 2.34, 4.2, 8.9),
        table2=PaperRow(406, 7.67, 433, 6.10, 6.7, 20.5),
    ),
    BenchmarkSpec(
        name="x3",
        description="Public Domain",
        n_inputs=235,
        n_outputs=99,
        n_gates=830,
        seed=2404,
        support_size=12,
        outputs_per_window=3,
        or_probability=0.4,
        table1=PaperRow(1372, 7.49, 1390, 6.25, 1.3, 16.6),
        table2=PaperRow(2005, 70.13, 1601, 26.61, -20.0, 62.0),
    ),
)

#: Table 2 re-runs the four public circuits through the timed flow.
TABLE2_SUITE: Tuple[BenchmarkSpec, ...] = tuple(
    spec for spec in TABLE1_SUITE if spec.table2 is not None
)

#: Paper-reported averages for the two tables.
TABLE1_PAPER_AVERAGES = {"area_penalty_pct": 11.8, "power_savings_pct": 18.0}
TABLE2_PAPER_AVERAGES = {"area_penalty_pct": 8.6, "power_savings_pct": 35.3}


def spec_by_name(name: str) -> BenchmarkSpec:
    for spec in TABLE1_SUITE:
        if spec.name == name:
            return spec
    raise ReproError(f"unknown benchmark {name!r}")


def build_suite(names: Optional[List[str]] = None) -> Dict[str, LogicNetwork]:
    """Build (a subset of) the suite; keyed by circuit name."""
    specs = TABLE1_SUITE if names is None else [spec_by_name(n) for n in names]
    return {spec.name: spec.build() for spec in specs}

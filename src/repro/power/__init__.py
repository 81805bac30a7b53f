"""Power models, signal probabilities, estimation, and Monte-Carlo measurement."""

from repro.power.activity import (
    boundary_input_inverter_switching,
    boundary_output_inverter_switching,
    domino_switching,
    figure2_series,
    static_switching,
    switching_curve,
)
from repro.power.estimator import (
    DominoPowerModel,
    PhaseEvaluator,
    PolaritySpace,
    PowerBreakdown,
    estimate_power,
)
from repro.power.probability import (
    ProbabilityResult,
    bdd_probabilities,
    monte_carlo_probabilities,
    node_probabilities,
    random_source_batch,
    uniform_input_probabilities,
)
from repro.power.simulator import (
    SequentialPowerSimulator,
    SimulatedPower,
    measure_switching_counts,
    simulate_power,
)
from repro.power.compare import StaticVsDominoReport, compare_static_vs_domino
from repro.power.glitch import (
    GlitchReport,
    domino_glitch_check,
    unit_delay_glitch_report,
)

__all__ = [
    "StaticVsDominoReport",
    "compare_static_vs_domino",
    "GlitchReport",
    "domino_glitch_check",
    "unit_delay_glitch_report",
    "boundary_input_inverter_switching",
    "boundary_output_inverter_switching",
    "domino_switching",
    "figure2_series",
    "static_switching",
    "switching_curve",
    "DominoPowerModel",
    "PhaseEvaluator",
    "PolaritySpace",
    "PowerBreakdown",
    "estimate_power",
    "ProbabilityResult",
    "bdd_probabilities",
    "monte_carlo_probabilities",
    "node_probabilities",
    "random_source_batch",
    "uniform_input_probabilities",
    "SequentialPowerSimulator",
    "SimulatedPower",
    "measure_switching_counts",
    "simulate_power",
]

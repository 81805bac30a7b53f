"""The paper's contribution: phase-assignment cost model, optimisers, flow.

The flow itself is exposed at three levels:

* :func:`run_flow` — one circuit, keyword arguments (legacy API);
* :class:`Pipeline` + :class:`FlowConfig` — one circuit, staged
  (inspect individual stages, back them with a store);
* :func:`run_many` — many circuits fanned across worker processes.
"""

from repro.core.batch import (
    BATCH_ORDERS,
    BatchItem,
    BatchResult,
    SweepPoint,
    SweepResult,
    default_jobs,
    derive_seed,
    expand_grid,
    format_batch,
    format_sweep,
    predicted_cost,
    run_many,
    sweep,
)
from repro.core.config import FlowConfig, POWER_METHODS
from repro.core.pipeline import (
    Pipeline,
    PipelineContext,
    PipelineResult,
    STAGE_NAMES,
    StageResult,
)
from repro.core.cost import (
    COMBOS,
    CostModelData,
    Move,
    all_pair_costs,
    best_pair_and_combo,
    cost_matrices,
    group_cost,
    pair_cost,
)
from repro.core.timing_aware import (
    PhaseTimingModel,
    TimingAwareResult,
    minimize_power_timing_aware,
)
from repro.core.min_area import AreaResult, minimize_area
from repro.core.flow import (
    FlowResult,
    SynthesisVariant,
    format_table,
    run_flow,
)

__all__ = [
    "BATCH_ORDERS",
    "BatchItem",
    "BatchResult",
    "SweepPoint",
    "SweepResult",
    "default_jobs",
    "derive_seed",
    "expand_grid",
    "format_batch",
    "format_sweep",
    "predicted_cost",
    "run_many",
    "sweep",
    "FlowConfig",
    "POWER_METHODS",
    "Pipeline",
    "PipelineContext",
    "PipelineResult",
    "STAGE_NAMES",
    "StageResult",
    "COMBOS",
    "CostModelData",
    "Move",
    "all_pair_costs",
    "best_pair_and_combo",
    "cost_matrices",
    "group_cost",
    "pair_cost",
    "PhaseTimingModel",
    "TimingAwareResult",
    "minimize_power_timing_aware",
    "AreaResult",
    "minimize_area",
    "FlowResult",
    "SynthesisVariant",
    "format_table",
    "run_flow",
]

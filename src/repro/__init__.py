"""repro — Automated Phase Assignment for Low Power Domino Circuits.

A from-scratch reproduction of Patra & Narayanan, "Automated Phase
Assignment for the Synthesis of Low Power Domino Circuits" (DAC 1999).

Quickstart::

    from repro import FlowConfig, run_flow, run_many
    from repro.bench import spec_by_name

    # one circuit (legacy keyword API, unchanged)
    net = spec_by_name("frg1").build()
    print(run_flow(net).row())

    # the same flow, declaratively configured — FlowConfig captures
    # every knob and round-trips through JSON (synth --config).
    # run_many accepts networks, BenchmarkSpecs, or paths to BLIF files
    config = FlowConfig(n_vectors=8192, timed=True)
    specs = [spec_by_name(n) for n in ("frg1", "apex7")]
    batch = run_many(specs, config, jobs=4)
    for row in batch.rows():
        print(row)

    # stage-level inspection: every stage's output and runtime
    from repro import Pipeline
    result = Pipeline(config).run(net)
    print(result.stage_names, result.flow.row())

    # persistent caching + sweeps: a disk-backed ArtifactStore makes
    # repeated runs incremental, and sweep() expands parameter grids
    from repro import ArtifactStore, sweep
    store = ArtifactStore(".repro-store")
    warm = Pipeline(config, store=store).run(net)      # cold run fills it
    grid = sweep([net], {"n_vectors": [1024, 4096]}, config, store=store)
    print(grid.manifest())

Package map
-----------
``repro.network``  logic networks, BLIF I/O, the inverter-free phase transform
``repro.bdd``      ROBDD package + the paper's variable-ordering heuristic
``repro.power``    switching models, signal probabilities, estimation, MC power
``repro.core``     the paper's cost function, MA/MP optimisers, full flow
``repro.optimize`` pluggable MP strategy registry (budgets, sweeps)
``repro.domino``   domino cell library, mapper, timing/resizing
``repro.seq``      s-graphs, enhanced MFVS, sequential partitioning
``repro.bench``    benchmark suite and figure example circuits
``repro.store``    persistent artifact cache + run registry
``repro.serve``    async job-queue service + JSON-over-HTTP front-end
``repro.fleet``    distributed serving: coordinator + worker fleet over a
                   typed wire protocol, with supervision and affinity routing
``repro.log``      opt-in logging setup for the long-running entry points
"""

from repro.errors import (
    BatchError,
    BddError,
    BlifError,
    ConfigError,
    FleetError,
    NetworkError,
    PhaseError,
    PowerError,
    ProtocolError,
    QueueFullError,
    ReproError,
    SequentialError,
    ServeError,
    ServiceClosedError,
    TimingError,
    UnknownJobError,
)
from repro.phase import Phase, PhaseAssignment, enumerate_assignments
from repro.network import (
    GateType,
    LogicNetwork,
    DominoImplementation,
    Polarity,
    implementation_network,
    load_blif,
    parse_blif,
    phase_transform,
    save_blif,
    to_aoi,
    write_blif,
)
from repro.power import (
    DominoPowerModel,
    PhaseEvaluator,
    estimate_power,
    node_probabilities,
    simulate_power,
)
from repro.core import (
    BatchItem,
    BatchResult,
    FlowConfig,
    FlowResult,
    Pipeline,
    PipelineResult,
    StageResult,
    SweepPoint,
    SweepResult,
    minimize_area,
    run_flow,
    run_many,
    sweep,
)
from repro.optimize import (
    OptimizationResult,
    OptimizerBudget,
    OptimizerStrategy,
    make_strategy,
    register_strategy,
    strategy_names,
)
from repro.store import (
    ArtifactStore,
    RunRecord,
    RunStore,
    default_store_dir,
)
from repro.serve import HttpFrontend, Job, Service, serve_forever
from repro.fleet import Coordinator, FleetBackend, Worker
from repro.log import configure_logging

__version__ = "1.4.0"

__all__ = [
    "BatchError",
    "BddError",
    "BlifError",
    "ConfigError",
    "NetworkError",
    "PhaseError",
    "PowerError",
    "ReproError",
    "SequentialError",
    "TimingError",
    "Phase",
    "PhaseAssignment",
    "enumerate_assignments",
    "GateType",
    "LogicNetwork",
    "DominoImplementation",
    "Polarity",
    "implementation_network",
    "load_blif",
    "parse_blif",
    "phase_transform",
    "save_blif",
    "to_aoi",
    "write_blif",
    "DominoPowerModel",
    "PhaseEvaluator",
    "estimate_power",
    "node_probabilities",
    "simulate_power",
    "BatchItem",
    "BatchResult",
    "FlowConfig",
    "FlowResult",
    "Pipeline",
    "PipelineResult",
    "StageResult",
    "SweepPoint",
    "SweepResult",
    "minimize_area",
    "run_flow",
    "run_many",
    "sweep",
    "OptimizationResult",
    "OptimizerBudget",
    "OptimizerStrategy",
    "make_strategy",
    "register_strategy",
    "strategy_names",
    "ArtifactStore",
    "RunRecord",
    "RunStore",
    "default_store_dir",
    "QueueFullError",
    "ServeError",
    "ServiceClosedError",
    "UnknownJobError",
    "HttpFrontend",
    "Job",
    "Service",
    "serve_forever",
    "FleetError",
    "ProtocolError",
    "Coordinator",
    "FleetBackend",
    "Worker",
    "configure_logging",
    "__version__",
]

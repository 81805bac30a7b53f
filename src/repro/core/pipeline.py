"""Staged synthesis pipeline.

The Figure 6 flow, decomposed into named stages that always run in a
fixed order, each producing an inspectable :class:`StageResult`:

======================  =================================================
stage                   produces
======================  =================================================
``prepare``             the cleaned AOI network (minimise / strash / AOI)
``sequential``          per-input signal probabilities (latch fixed point)
``evaluator``           the shared :class:`PhaseEvaluator`
``optimize_ma``         the minimum-area baseline assignment
``optimize_mp``         the minimum-power assignment, via the
                        :mod:`repro.optimize` strategy registry
                        (``config.optimizer``; default: the paper's
                        ``pairwise`` heuristic, bit-identical)
``transform_map``       phase transform + technology mapping per variant
``resize``              transistor resizing (timed flow only)
``measure``             Monte-Carlo power measurement → ``FlowResult``
======================  =================================================

``resize`` runs in the timed flow only; the untimed flow reports it
skipped.  Each stage's output comes from one of two sources: its
implementation, or an optional persistent
:class:`repro.store.ArtifactStore` (``Pipeline(store=...)``) whose
entries are keyed by the network's structural
:meth:`~repro.network.netlist.LogicNetwork.fingerprint` plus the config
knobs that shape each artefact.  Executed stages write their artefacts
back.  A fully warm store short-circuits the entire run: the archived
:class:`FlowResult` is returned with every stage marked ``cached`` and
no stage executes.

Every stage runs on the calling thread; flows run in parallel only
across circuits, in the process pool of
:func:`repro.core.batch.run_many`, the service and fleet workers.

The legacy :func:`repro.core.flow.run_flow` is a thin wrapper over
``Pipeline().run(...)`` and stays bit-for-bit compatible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.network.duplication import DominoImplementation, phase_transform
from repro.network.netlist import LogicNetwork
from repro.network.ops import cleanup, to_aoi
from repro.phase import PhaseAssignment
from repro.core.config import FlowConfig
from repro.core.min_area import minimize_area
from repro.domino.gates import DominoCellLibrary
from repro.domino.mapper import MappedDesign, map_implementation, simulate_mapped_power
from repro.domino.timing import (
    ResizeResult,
    analyze_timing,
    default_timing_target,
    resize_to_meet_timing,
)
from repro.power.estimator import DominoPowerModel, PhaseEvaluator
from repro.seq.partition import sequential_probabilities

#: Canonical stage order.
STAGE_NAMES: Tuple[str, ...] = (
    "prepare",
    "sequential",
    "evaluator",
    "optimize_ma",
    "optimize_mp",
    "transform_map",
    "resize",
    "measure",
)


@dataclass
class StageResult:
    """Outcome of one pipeline stage."""

    name: str
    output: Any
    runtime_s: float
    skipped: bool = False
    cached: bool = False

    def __repr__(self) -> str:  # compact: outputs can be whole networks
        flags = "".join(
            f" [{f}]" for f, on in (("skipped", self.skipped), ("cached", self.cached)) if on
        )
        return f"StageResult({self.name!r}, {self.runtime_s:.3f}s{flags})"


@dataclass
class VariantBuild:
    """Per-variant (MA / MP) synthesis artefacts accumulated across the
    transform/resize/measure stages."""

    label: str
    assignment: PhaseAssignment
    estimated_power: float
    implementation: DominoImplementation
    design: MappedDesign
    resize: Optional[ResizeResult] = None


@dataclass
class PipelineContext:
    """Mutable state threaded through the stages.

    Stage callables receive the context and return their output; the
    pipeline stores the output both in the matching context slot and in
    the run's :class:`StageResult` list.
    """

    network: LogicNetwork
    config: FlowConfig
    library: DominoCellLibrary
    model: DominoPowerModel
    aoi: Optional[LogicNetwork] = None
    input_probs: Optional[Dict[str, float]] = None
    evaluator: Optional[PhaseEvaluator] = None
    ma_result: Optional[Any] = None  # AreaResult
    mp_result: Optional[Any] = None  # OptimizationResult
    builds: Dict[str, VariantBuild] = field(default_factory=dict)
    resizes: Dict[str, Optional[ResizeResult]] = field(default_factory=dict)
    flow: Optional["FlowResult"] = None  # noqa: F821  (set by measure)


@dataclass
class PipelineResult:
    """Everything one pipeline run produced.

    ``flow`` is the record that leaves the process; the mapped artefacts
    stay here, as ``context.builds["MA"]`` / ``["MP"]`` (a
    :class:`VariantBuild` each, holding the implementation and design).
    ``builds`` is empty when the whole run was served from the store.
    """

    flow: "FlowResult"  # noqa: F821
    stages: List[StageResult]
    context: PipelineContext

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage {name!r} in this run")

    @property
    def stage_names(self) -> List[str]:
        return [s.name for s in self.stages]

    @property
    def cached(self) -> bool:
        """True when the whole run was served from the persistent store."""
        return all(s.cached or s.skipped for s in self.stages)



# ----------------------------------------------------------------------
# default stage implementations


def _stage_prepare(ctx: PipelineContext) -> LogicNetwork:
    prepared = ctx.network
    if ctx.config.minimize:
        from repro.network.minimize import minimize_network

        prepared = minimize_network(prepared)
    if ctx.config.strash:
        from repro.network.strash import structural_hash

        prepared = structural_hash(prepared).network
    return cleanup(to_aoi(prepared))


def _stage_sequential(ctx: PipelineContext) -> Dict[str, float]:
    config = ctx.config
    aoi = ctx.aoi
    if config.input_probs is None:
        input_probs: Dict[str, float] = {
            name: config.input_probability for name in aoi.inputs
        }
    else:
        input_probs = dict(config.input_probs)
    if not aoi.is_combinational:
        seq_probs = sequential_probabilities(
            aoi, input_probs=input_probs, method=config.power_method, seed=config.seed
        )
        input_probs = dict(input_probs)
        input_probs.update(seq_probs.latch_probabilities)
    return input_probs


def _stage_evaluator(ctx: PipelineContext) -> PhaseEvaluator:
    config = ctx.config
    return PhaseEvaluator(
        ctx.aoi,
        input_probs=ctx.input_probs,
        model=ctx.model,
        method=config.power_method,
        seed=config.seed,
        n_vectors=config.n_vectors,
    )


def _stage_optimize_ma(ctx: PipelineContext):
    return minimize_area(
        ctx.evaluator,
        exhaustive_limit=ctx.config.area_exhaustive_limit,
        seed=ctx.config.seed,
    )


def _stage_optimize_mp(ctx: PipelineContext):
    """The MP search, through the :mod:`repro.optimize` registry.

    The strategy comes from ``config.optimizer`` (+ params/budget from
    ``config.optimizer_params``); the default ``pairwise`` strategy
    takes its ``exhaustive_limit``/``max_pairs`` params from
    ``config.power_exhaustive_limit``/``config.max_pairs``.
    """
    initial = ctx.ma_result.assignment
    strategy, budget = ctx.config.resolved_optimizer()
    return strategy.optimize(
        ctx.evaluator, initial=initial, budget=budget, seed=ctx.config.seed
    )


def _variant_assignments(ctx: PipelineContext) -> List[Tuple[str, PhaseAssignment, float]]:
    """(label, assignment, estimated power) for the MA and MP variants."""
    ma_assignment = ctx.ma_result.assignment
    return [
        ("MA", ma_assignment, ctx.evaluator.power(ma_assignment)),
        ("MP", ctx.mp_result.assignment, ctx.mp_result.power),
    ]


def _stage_transform_map(ctx: PipelineContext) -> Dict[str, VariantBuild]:
    """Phase transform (a walk of the evaluator's polarity space) +
    technology mapping of each variant."""
    builds: Dict[str, VariantBuild] = {}
    for label, assignment, est_power in _variant_assignments(ctx):
        impl = phase_transform(ctx.aoi, assignment, ctx.evaluator.space)
        builds[label] = VariantBuild(
            label=label,
            assignment=assignment,
            estimated_power=est_power,
            implementation=impl,
            design=map_implementation(impl, ctx.library),
        )
    return builds


def _stage_resize(ctx: PipelineContext) -> Dict[str, Optional[ResizeResult]]:
    resizes: Dict[str, Optional[ResizeResult]] = {}
    for label, build in ctx.builds.items():
        target = default_timing_target(build.design, ctx.config.timing_slack_fraction)
        build.resize = resize_to_meet_timing(build.design, target)
        resizes[label] = build.resize
    return resizes


def _stage_measure(ctx: PipelineContext):
    from repro.core.flow import FlowResult, SynthesisVariant

    config = ctx.config
    variants: Dict[str, SynthesisVariant] = {}
    for label, build in ctx.builds.items():
        timing = analyze_timing(build.design)
        sim = simulate_mapped_power(
            build.design,
            input_probs=ctx.input_probs,
            n_vectors=config.n_vectors,
            seed=config.seed,
            current_scale=config.current_scale,
        )
        variants[label] = SynthesisVariant(
            label=label,
            assignment=build.assignment,
            size=build.design.standard_cell_count(),
            power_ma=sim["current_ma"],
            estimated_power=build.estimated_power,
            resize=build.resize,
            critical_delay=timing.critical_delay,
        )
    return FlowResult(
        name=ctx.network.name,
        n_inputs=len(ctx.aoi.inputs),
        n_outputs=len(ctx.aoi.outputs),
        ma=variants["MA"],
        mp=variants["MP"],
        timed=config.timed,
        probability_method=ctx.evaluator.probability_result.method,
    )


#: stage name → (default implementation, context slot).
_STAGE_TABLE: Dict[str, Tuple[Callable[[PipelineContext], Any], str]] = {
    "prepare": (_stage_prepare, "aoi"),
    "sequential": (_stage_sequential, "input_probs"),
    "evaluator": (_stage_evaluator, "evaluator"),
    "optimize_ma": (_stage_optimize_ma, "ma_result"),
    "optimize_mp": (_stage_optimize_mp, "mp_result"),
    "transform_map": (_stage_transform_map, "builds"),
    "resize": (_stage_resize, "resizes"),
    "measure": (_stage_measure, "flow"),
}


class Pipeline:
    """Runner for the synthesis flow: every stage of one config, in
    :data:`STAGE_NAMES` order.

    Parameters
    ----------
    config:
        The :class:`FlowConfig` of every :meth:`run`.
    store:
        Optional persistent :class:`repro.store.ArtifactStore`.  Stages
        with a stored artefact for the network fingerprint + config are
        served from it; executed stages write their artefacts back.  A
        stored flow record for the exact (fingerprint, config) pair
        short-circuits the whole run.
    """

    def __init__(
        self,
        config: Optional[FlowConfig] = None,
        *,
        store: Optional["ArtifactStore"] = None,  # noqa: F821
    ) -> None:
        self.config = config or FlowConfig()
        self.store = store

    # ------------------------------------------------------------------
    # persistent store integration

    #: stored stage → artefact kind.  ``resize``/``transform_map``
    #: outputs hold mapped designs and are cheap relative to what feeds
    #: them; ``evaluator`` holds live BDDs and cannot leave the process.
    _STORE_KIND = {
        "prepare": "prepare",
        "sequential": "probs",
        "optimize_ma": "assign_ma",
        "optimize_mp": "assign_mp",
        "measure": "flow",
    }

    def _store_key(self, name: str) -> tuple:
        """Config key of one stage's persistent artefact: exactly the
        knobs that can change the stage's output for a fixed source
        network.  The ``False`` flags and the ``()`` held a stage skip
        set, now gone; they stay so that stored keys still match."""
        config = self.config
        if name == "prepare":
            return (config.minimize, config.strash)
        if name == "sequential":
            probs = (
                None
                if config.input_probs is None
                else tuple(sorted(config.input_probs.items()))
            )
            return (
                config.minimize,
                config.strash,
                config.input_probability,
                probs,
                config.power_method,
                config.seed,
            )
        if name == "optimize_ma":
            return config.cache_key() + (False, config.area_exhaustive_limit)
        if name == "optimize_mp":
            # optimizer_key() keeps one strategy's assignment from ever
            # being served to another (no cross-strategy store hits)
            return config.cache_key() + (
                False,
                False,
                config.area_exhaustive_limit,
                config.power_exhaustive_limit,
                config.max_pairs,
            ) + config.optimizer_key()
        if name == "measure":
            return config.result_key() + ((),)
        raise KeyError(name)

    def _store_get(self, name: str, fingerprint: str):
        """Decoded artefact from the persistent store, or ``None``."""
        from repro.store.serialize import (
            StoreError,
            assignment_from_dict,
            network_from_dict,
        )

        payload = self.store.get(
            self._STORE_KIND[name], fingerprint, self._store_key(name)
        )
        if payload is None:
            return None
        try:
            if name == "prepare":
                return network_from_dict(payload)
            if name == "sequential":
                return {str(k): float(v) for k, v in payload["input_probs"].items()}
            if name == "optimize_ma":
                from repro.core.min_area import AreaResult

                return AreaResult(
                    assignment=assignment_from_dict(payload["assignment"]),
                    area=int(payload["area"]),
                    method=str(payload["method"]),
                    evaluations=int(payload["evaluations"]),
                )
            if name == "optimize_mp":
                from repro.optimize import OptimizationResult

                strategy = payload.get("strategy")
                return OptimizationResult(
                    assignment=assignment_from_dict(payload["assignment"]),
                    power=float(payload["power"]),
                    initial_power=float(payload["initial_power"]),
                    method=str(payload["method"]),
                    evaluations=int(payload["evaluations"]),
                    strategy=None if strategy is None else str(strategy),
                )
            if name == "measure":
                from repro.report import flow_result_from_dict

                return flow_result_from_dict(payload)
        except (StoreError, KeyError, TypeError, ValueError, AttributeError):
            return None  # corrupted payload: recompute and overwrite
        raise KeyError(name)

    def _store_put(self, name: str, fingerprint: str, output: Any) -> None:
        """Persist one executed stage's artefact."""
        from repro.store.serialize import assignment_to_dict, network_to_dict

        if name == "prepare":
            payload = network_to_dict(output)
        elif name == "sequential":
            payload = {"input_probs": dict(output)}
        elif name in ("optimize_ma", "optimize_mp"):
            payload = {
                "assignment": assignment_to_dict(output.assignment),
                "method": output.method,
                "evaluations": output.evaluations,
            }
            if name == "optimize_ma":
                payload["area"] = output.area
            else:
                payload["power"] = output.power
                payload["initial_power"] = output.initial_power
                payload["strategy"] = getattr(output, "strategy", None)
        elif name == "measure":
            from repro.report import flow_result_to_dict

            payload = flow_result_to_dict(output)
        else:
            return
        self.store.put(
            self._STORE_KIND[name], fingerprint, self._store_key(name), payload
        )

    def cached_flow(self, network: LogicNetwork) -> Optional["FlowResult"]:  # noqa: F821
        """The archived :class:`FlowResult` this pipeline would
        short-circuit to for ``network``, or ``None``.

        A pure store probe — nothing executes and nothing is written —
        used by callers that need to know *before* scheduling work
        whether a run would be served warm (the async service's
        submit-time dedup).  Always ``None`` without a store, or when
        the optimizer carries a wall-clock budget (see
        :meth:`FlowConfig.optimizer_reproducible`).
        """
        if self.store is None:
            return None
        self.config.validate()
        if not self.config.optimizer_reproducible():
            return None
        return self._store_get("measure", network.fingerprint())

    def _short_circuit(
        self, ctx: PipelineContext, flow: "FlowResult"  # noqa: F821
    ) -> PipelineResult:
        """A whole-run store hit: every stage reports cached, nothing ran."""
        ctx.flow = flow
        stages = [
            StageResult(
                name=name,
                output=flow if name == "measure" else None,
                runtime_s=0.0,
                skipped=name == "resize" and not ctx.config.timed,
                cached=True,
            )
            for name in STAGE_NAMES
        ]
        return PipelineResult(flow=flow, stages=stages, context=ctx)

    def run(self, network: LogicNetwork) -> PipelineResult:
        """Execute the stages on one circuit and return every artefact."""
        config = self.config
        config.validate()
        library = config.resolved_library()
        model = config.resolved_model()
        ctx = PipelineContext(
            network=network, config=config, library=library, model=model
        )
        fingerprint = network.fingerprint() if self.store is not None else None
        # a wall-clock optimizer budget makes the MP search machine- and
        # load-dependent: its assignment and flow record are neither
        # served from nor written to the persistent store (the
        # strategy-independent prepare/probs/MA artefacts still are)
        reproducible = config.optimizer_reproducible()
        if fingerprint is not None and reproducible:
            flow = self._store_get("measure", fingerprint)
            if flow is not None:
                return self._short_circuit(ctx, flow)
        stages: List[StageResult] = []
        for name in STAGE_NAMES:
            fn, slot = _STAGE_TABLE[name]
            if name == "resize" and not config.timed:
                stages.append(
                    StageResult(name=name, output=None, runtime_s=0.0, skipped=True)
                )
                continue
            start = time.perf_counter()
            stored = (
                fingerprint is not None
                and name in self._STORE_KIND
                and (reproducible or name not in ("optimize_mp", "measure"))
            )
            # "measure" was already probed by the whole-run short circuit
            output = (
                self._store_get(name, fingerprint)
                if stored and name != "measure"
                else None
            )
            cached = output is not None
            if not cached:
                output = fn(ctx)
                if stored:
                    self._store_put(name, fingerprint, output)
            elapsed = time.perf_counter() - start
            setattr(ctx, slot, output)
            stages.append(
                StageResult(name=name, output=output, runtime_s=elapsed, cached=cached)
            )
        return PipelineResult(flow=ctx.flow, stages=stages, context=ctx)

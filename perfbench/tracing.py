"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces the public entry point of each layer with a
wrapper that records a span around the original call.  Nothing under
``src/`` changes: the wrappers are installed on the module attributes
and class methods the pipeline looks up at call time, and
:meth:`Tracer.restore` puts the originals back.

Spans nest per thread.  A layer's *self time* is its span duration
minus the time covered by child spans, so the self times of all layers
plus the unwrapped glue add up to the wall time of the traced region.
Counters (queries, evaluations, cells, store hits) are taken at the
same boundaries, from the arguments and return values of the wrapped
calls.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names, in the order a job climbs the stack.  ``pipeline`` is
#: the ``Pipeline.run`` root span; its self time is the stage glue not
#: covered by any other layer.
LAYERS: Tuple[str, ...] = (
    "pipeline",
    "network",
    "power.evaluator",
    "estimator",
    "min_area",
    "optimize",
    "cost",
    "duplication",
    "mapper",
    "timing",
    "simulator",
    "store.get",
    "store.put",
)

#: Counters that are pure functions of the inputs: a difference between
#: two runs of the same seed is a behaviour change, never jitter.
#: ``FLOW_COUNTERS`` are per circuit; ``STORE_COUNTERS`` per request.
FLOW_COUNTERS: Tuple[str, ...] = (
    "estimator.area_queries",
    "estimator.power_queries",
    "min_area.evaluations",
    "optimize.evaluations",
    "optimize.steps",
    "optimize.commits",
    "cost.calls",
    "mapper.cells",
    "timing.resize_iterations",
)
STORE_COUNTERS: Tuple[str, ...] = ("store.gets", "store.puts", "store.hits", "store.misses")
WORK_COUNTERS: Tuple[str, ...] = FLOW_COUNTERS + STORE_COUNTERS


def _count_area_result(counts: Dict[str, int], result: Any) -> None:
    counts["min_area.evaluations"] += result.evaluations


def _count_optimization(counts: Dict[str, int], result: Any) -> None:
    counts["optimize.evaluations"] += result.evaluations
    counts["optimize.steps"] += len(result.history)
    counts["optimize.commits"] += sum(1 for step in result.history if step.committed)


def _count_store_get(counts: Dict[str, int], result: Any) -> None:
    counts["store.gets"] += 1
    counts["store.hits" if result is not None else "store.misses"] += 1


def _counter(name: str, amount: Callable[[Any], int] = lambda result: 1):
    def count(counts: Dict[str, int], result: Any) -> None:
        counts[name] += amount(result)

    return count


class Tracer:
    """Per-layer span and counter aggregation over wrapped calls."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Dict[str, int] = {name: 0 for name in WORK_COUNTERS}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> List[float]:
        frame = [time.perf_counter(), 0.0]  # start, time covered by children
        self._stack().append(frame)
        return frame

    def _exit(self, layer: str, frame: List[float]) -> None:
        duration = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration
        with self._lock:
            self.calls[layer] += 1
            self.self_s[layer] += duration - frame[1]

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        count: Optional[Callable[[Dict[str, int], Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(layer, frame)
            if count is not None:
                with tracer._lock:
                    count(tracer.counts, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # ------------------------------------------------------------------
    # installation

    def install(self, optimizer_class: type) -> "Tracer":
        """Wrap every layer's public calls.  ``optimizer_class`` is the
        strategy class the workload's config resolves to."""
        import repro.core.cost as cost
        import repro.core.pipeline as pipeline
        import repro.network.minimize as minimize
        import repro.network.strash as strash
        from repro.power.estimator import PhaseEvaluator
        from repro.store.artifacts import ArtifactStore

        self.wrap(pipeline.Pipeline, "run", "pipeline")
        for name in ("to_aoi", "cleanup"):
            self.wrap(pipeline, name, "network")
        self.wrap(minimize, "minimize_network", "network")
        self.wrap(strash, "structural_hash", "network")
        self.wrap(PhaseEvaluator, "__init__", "power.evaluator")
        self.wrap(PhaseEvaluator, "area", "estimator", _counter("estimator.area_queries"))
        self.wrap(PhaseEvaluator, "power", "estimator")
        # power() goes through breakdown(), so breakdown calls count
        # every power query exactly once
        self.wrap(
            PhaseEvaluator, "breakdown", "estimator", _counter("estimator.power_queries")
        )
        self.wrap(pipeline, "minimize_area", "min_area", _count_area_result)
        self.wrap(optimizer_class, "optimize", "optimize", _count_optimization)
        self.wrap(cost, "best_pair_and_combo", "cost", _counter("cost.calls"))
        self.wrap(cost, "cost_matrices", "cost")
        self.wrap(pipeline, "phase_transform", "duplication")
        self.wrap(
            pipeline,
            "map_implementation",
            "mapper",
            _counter("mapper.cells", lambda design: design.n_cells),
        )
        self.wrap(
            pipeline,
            "resize_to_meet_timing",
            "timing",
            _counter("timing.resize_iterations", lambda resize: resize.iterations),
        )
        self.wrap(pipeline, "simulate_mapped_power", "simulator")
        self.wrap(ArtifactStore, "get", "store.get", _count_store_get)
        self.wrap(ArtifactStore, "put", "store.put", _counter("store.puts"))
        return self

    def restore(self) -> None:
        """Put every wrapped original back, innermost patch last."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # results

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counts)

    def named_self_s(self) -> float:
        """Self time of every layer except the pipeline glue."""
        return sum(s for layer, s in self.self_s.items() if layer != "pipeline")


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Per-counter difference, keeping only counters that moved."""
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}

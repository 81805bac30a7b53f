"""Parallel batch front-end: run the flow over many circuits at once.

:func:`run_many` fans a list of circuits across worker processes and
returns per-circuit results in input order with three guarantees:

* **determinism** — every stochastic component is seeded from the
  item's config, so ``jobs=4`` produces results bit-for-bit identical
  to a sequential loop of ``run_flow`` calls with the same seeds;
  optional :func:`derive_seed` per-circuit seeding is a pure function
  of ``(base seed, circuit name)`` and therefore also
  schedule-independent;
* **error isolation** — one bad circuit (unparsable BLIF, flow bug)
  yields a failed :class:`BatchItem` carrying the traceback; the rest
  of the batch completes normally;
* **progress** — an optional callback fires in the parent process as
  each circuit finishes (out of order), for CLI progress lines or
  service-side metrics.

Beyond the basics, the batch front-end handles the operational
concerns of large heterogeneous suites:

* **cost-ordered scheduling** (``order="cost"``, the default) —
  circuits dispatch largest-first by predicted cost (gate count ×
  output count), so the long poles start immediately instead of
  serialising at the tail of a FIFO schedule.  Results still come back
  in input order and are bit-identical either way.
* **per-item timeouts** (``timeout_s=...``) — a hung circuit becomes a
  failed :class:`BatchItem` instead of stalling the whole pool; one
  ``SIGALRM`` timer on the running process's main thread enforces it.
* **persistent caching** (``store=...``) — each worker runs its
  pipeline against a shared :class:`repro.store.ArtifactStore`, so
  circuits whose (fingerprint, config) pair is already archived are
  served from disk without executing any synthesis stage
  (``BatchItem.cached``), and cold circuits persist their artefacts
  for the next run.

The module is also the execution spine the service and the fleet run
on: :func:`execute_one` turns one circuit into an :class:`Outcome`, and
:func:`process_pool` builds the one kind of pool it runs in — workers
keep SIGINT under ``run_many`` (Ctrl-C aborts a batch) and ignore it
under the service and fleet workers (Ctrl-C drains).

:func:`sweep` expands one base config over parameter grids into a
single ``run_many`` batch that shares the store, with a manifest
recording the grid — the repo's config-sweep front door.

Circuits can be given as :class:`LogicNetwork` objects, paths to BLIF
files, or :class:`BenchmarkSpec` recipes; loading/building happens in
the worker so the parent never blocks on I/O for circuits it has not
reached yet.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
import time
import traceback
import warnings
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import BatchError, ConfigError
from repro.network.netlist import LogicNetwork
from repro.core.config import FlowConfig
from repro.core.flow import FlowResult

#: Accepted circuit descriptions.
CircuitLike = Union[LogicNetwork, str, Path, "BenchmarkSpec"]  # noqa: F821

#: ``progress(done, total, item)`` — called in the parent as items finish.
ProgressCallback = Callable[[int, int, "BatchItem"], None]


def derive_seed(base_seed: int, name: str) -> int:
    """Deterministic per-circuit seed: a pure function of the base seed
    and the circuit name, independent of batch order and worker
    scheduling."""
    return (base_seed + zlib.crc32(name.encode("utf-8"))) % (2**31)


@dataclass
class BatchItem:
    """Outcome of one circuit in a batch."""

    index: int
    name: str
    config: FlowConfig
    result: Optional[FlowResult] = None
    error: Optional[str] = None
    runtime_s: float = 0.0
    cached: bool = False  # served whole from the persistent store

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


@dataclass(frozen=True)
class Outcome:
    """What running one circuit produced — the only outcome shape.

    :func:`execute_one` returns it, :func:`run_many` copies it onto a
    :class:`BatchItem`, the service's execution backends return it for
    a :class:`repro.serve.service.Job`, and the fleet coordinator
    resolves each job's future with it.  ``result`` is the
    :class:`FlowResult` on every path, a store hit included; ``error``
    is the failure text, its first line naming the failure.
    """

    result: Optional[FlowResult] = None
    error: Optional[str] = None
    runtime_s: float = 0.0
    cached: bool = False  # served whole from the persistent store

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    @classmethod
    def from_exception(cls, exc: BaseException, context: str = "") -> "Outcome":
        """A failure raised *around* :func:`execute_one` (a broken pool,
        an undecodable fleet job, a lost backend) rather than inside it."""
        return cls(error=f"{context}{type(exc).__name__}: {exc}")


def notify_progress(
    progress: Optional[ProgressCallback], done: int, total: int, item: BatchItem
) -> None:
    """Fire one progress callback, isolated: a raising subscriber (e.g.
    a disconnected stream consumer) becomes a ``RuntimeWarning`` and
    cannot abort the batch or the service that is reporting."""
    if progress is None:
        return
    try:
        progress(done, total, item)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        warnings.warn(
            f"progress callback failed on {item.name!r} "
            f"({type(exc).__name__}: {exc}); continuing",
            RuntimeWarning,
            stacklevel=4,  # run_many's caller, past finish() and run_many()
        )


@dataclass
class BatchResult:
    """All per-circuit outcomes, in input order."""

    items: List[BatchItem]
    jobs: int
    runtime_s: float

    @property
    def results(self) -> List[FlowResult]:
        """Successful flow results, in input order."""
        return [item.result for item in self.items if item.ok]

    @property
    def failures(self) -> List[BatchItem]:
        return [item for item in self.items if not item.ok]

    @property
    def n_ok(self) -> int:
        return sum(1 for item in self.items if item.ok)

    @property
    def n_failed(self) -> int:
        return len(self.items) - self.n_ok

    @property
    def n_cached(self) -> int:
        """Items served whole from the persistent store."""
        return sum(1 for item in self.items if item.cached)

    def rows(self) -> List[Dict[str, object]]:
        """Paper-layout table rows of the successful results."""
        return [item.result.row() for item in self.items if item.ok]


# ----------------------------------------------------------------------
# job descriptions (must pickle cheaply for the process pool)


def _describe(circuit: CircuitLike) -> tuple:
    """(kind, payload, name) — picklable description of one circuit."""
    from repro.bench.mcnc import BenchmarkSpec

    if isinstance(circuit, LogicNetwork):
        return ("network", circuit, circuit.name)
    if isinstance(circuit, BenchmarkSpec):
        return ("spec", circuit, circuit.name)
    if isinstance(circuit, (str, Path)):
        path = str(circuit)
        return ("blif", path, Path(path).stem)
    raise BatchError(
        f"cannot interpret circuit of type {type(circuit).__name__} "
        "(expected LogicNetwork, BenchmarkSpec, or BLIF path)"
    )


def predicted_cost(kind: str, payload) -> float:
    """Predicted flow cost of one circuit, for largest-first scheduling.

    Gate count × output count tracks the dominant optimiser terms
    (evaluator sweeps are linear in gates, assignment searches in
    outputs).  For BLIF paths the file size stands in for the gate
    count so scheduling never pays a parse; prediction failures cost 0
    (scheduled last) rather than raising.
    """
    try:
        if kind == "network":
            return float(len(payload.gates)) * max(1, len(payload.outputs))
        if kind == "spec":
            return float(payload.n_gates) * max(1, payload.n_outputs)
        return float(os.path.getsize(payload))
    except (OSError, AttributeError, TypeError):
        return 0.0


class ItemTimeout(Exception):
    """Raised inside a worker when one circuit exceeds ``timeout_s``."""


def check_timeout(timeout_s: Optional[float], error: type = BatchError) -> None:
    """Raise ``error`` unless ``timeout_s`` is ``None`` or a budget the
    guard can arm: ``0 < timeout_s <= threading.TIMEOUT_MAX``.

    NaN fails the comparison; ``inf`` and anything above
    ``TIMEOUT_MAX`` overflow ``setitimer``.
    """
    if timeout_s is not None and not 0 < timeout_s <= threading.TIMEOUT_MAX:
        raise error(
            f"timeout_s must be in (0, {threading.TIMEOUT_MAX:g}] seconds, "
            f"got {timeout_s}"
        )


def _can_arm_alarm() -> bool:
    """Whether the calling thread can arm :func:`_timeout_guard`."""
    main = threading.current_thread() is threading.main_thread()
    return main and hasattr(signal, "SIGALRM")


def _timeout_guard(timeout_s: float) -> Callable[[], None]:
    """Arm a ``SIGALRM`` timer raising :class:`ItemTimeout` after
    ``timeout_s``; returns the disarm callable for a ``finally`` block.

    It interrupts even blocking C calls, but only the main thread of a
    POSIX process can arm it: anywhere else this raises
    :class:`BatchError` naming ``SIGALRM``.  A failed arming restores
    the previous handler.
    """
    if not _can_arm_alarm():
        raise BatchError(
            f"timeout_s={timeout_s:g} needs SIGALRM, which only the main "
            "thread of a POSIX process can arm"
        )

    def _raise_timeout(signum, frame):
        raise ItemTimeout(f"flow exceeded timeout_s={timeout_s:g}")

    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    except BaseException:
        signal.signal(signal.SIGALRM, previous)
        raise

    def disarm() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)

    return disarm


def _disarm_quietly(disarm: Callable[[], None]) -> None:
    """Disarm a timeout guard, absorbing a timeout that fires in the
    completion window.

    A ``SIGALRM`` handler that is already pending can raise
    :class:`ItemTimeout` *during* disarm.  The item is already finished
    by then, so the stray exception must end here — letting it propagate
    would abort an inline batch or fail the worker's *next* item.
    """
    try:
        disarm()
    except ItemTimeout:
        pass


def materialize(kind: str, payload) -> LogicNetwork:
    """Realise one :func:`_describe` description as a network (build
    the spec / load the BLIF / pass the network through)."""
    if kind == "network":
        return payload
    if kind == "spec":
        return payload.build()
    from repro.network.blif import load_blif

    return load_blif(payload)


def execute_one(
    kind: str,
    payload,
    config: FlowConfig,
    *,
    store: Optional["ArtifactStore"] = None,  # noqa: F821
    timeout_s: Optional[float] = None,
) -> Outcome:
    """Run the flow on one described circuit, with error isolation.

    The single-item execution path of :func:`run_many`, the async
    service (:mod:`repro.serve`) and fleet workers (:mod:`repro.fleet`).
    Any circuit failure — a timeout included — becomes the
    :class:`Outcome` error instead of raising, so one bad circuit cannot
    take down a batch or a service worker; KeyboardInterrupt and other
    non-``Exception`` exits still propagate so an inline batch can
    actually be aborted.  ``timeout_s`` is checked and armed inside
    the isolation: a bad budget, or one this thread cannot arm, is the
    item's failure, and the flow never runs unguarded.
    """
    start = time.perf_counter()
    disarm = None
    try:
        try:
            check_timeout(timeout_s)
            if timeout_s is not None:
                disarm = _timeout_guard(timeout_s)
            network = materialize(kind, payload)
            from repro.core.pipeline import Pipeline

            # time the flow only, not circuit build/load — keeps
            # per-circuit runtimes comparable with the historical
            # sequential tables
            start = time.perf_counter()
            run = Pipeline(config, store=store).run(network)
            return Outcome(run.flow, None, time.perf_counter() - start, run.cached)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            tb = traceback.format_exc()
            return Outcome(
                error=f"{detail}\n{tb}", runtime_s=time.perf_counter() - start
            )
        finally:
            if disarm is not None:
                _disarm_quietly(disarm)
    except ItemTimeout as exc:
        # the SIGALRM handler can run on the handful of bytecodes between
        # the inner handlers and _disarm_quietly's guarded region; the
        # item effectively hit its budget, so record the normal timeout
        # failure instead of letting the stray exception abort the batch
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        return Outcome(error=detail, runtime_s=time.perf_counter() - start)


def _init_pool_worker(ignore_sigint: bool) -> None:
    """Initializer of every worker process :func:`process_pool` starts.

    A terminal Ctrl-C delivers SIGINT to the whole foreground process
    group, workers included.  ``run_many`` workers keep the default
    handler, so Ctrl-C aborts the batch; service and fleet workers
    ignore SIGINT, because their parent turns it into a graceful drain
    that the workers must survive to finish the in-flight circuits.
    """
    if ignore_sigint:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover — exotic platforms
            pass


def process_pool(workers: int, *, ignore_sigint: bool) -> ProcessPoolExecutor:
    """The process pool :func:`run_many`, the service's local backend
    and fleet workers run :func:`execute_one` in, bound with
    :func:`functools.partial` (``run_in_executor`` passes no keywords).
    ``ignore_sigint`` is the SIGINT policy of its workers."""
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_pool_worker,
        initargs=(ignore_sigint,),
    )


def _available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host, which over-counts under CPU
    affinity / container quotas (a ``--cpus=1`` CI runner on a 64-core
    host would otherwise start useless workers); the scheduler
    affinity mask is the truth where the platform exposes it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def default_jobs() -> int:
    """A sensible worker count: schedulable parallelism minus one, ≥ 1."""
    return max(1, _available_cpus() - 1)


#: Dispatch orders run_many understands.
BATCH_ORDERS = ("cost", "fifo")


def run_many(
    circuits: Sequence[CircuitLike],
    config: Optional[FlowConfig] = None,
    *,
    configs: Optional[Sequence[FlowConfig]] = None,
    jobs: int = 1,
    per_circuit_seeds: bool = False,
    progress: Optional[ProgressCallback] = None,
    store: Optional["ArtifactStore"] = None,  # noqa: F821
    order: str = "cost",
    timeout_s: Optional[float] = None,
    stage_jobs: Optional[int] = None,
) -> BatchResult:
    """Run the synthesis flow on many circuits, optionally in parallel.

    Parameters
    ----------
    circuits:
        Networks, BLIF paths, or benchmark specs.
    config:
        Shared :class:`FlowConfig` (defaults to ``FlowConfig()``).
    configs:
        Optional per-circuit configs (same length as ``circuits``);
        overrides ``config``.
    jobs:
        Worker processes.  ``1`` runs inline in this process (still
        with error isolation) unless the calling thread cannot arm
        ``timeout_s``; ``>1``, or such a budget, uses a
        ``ProcessPoolExecutor`` of ``min(jobs, circuits)`` workers.
    per_circuit_seeds:
        Re-seed each circuit with ``derive_seed(config.seed, name)`` so
        batch members decorrelate; off by default so a batch matches a
        sequential loop of ``run_flow`` calls exactly.
    progress:
        ``callback(done, total, item)`` fired as each circuit finishes.
        Callback exceptions are isolated (reported as a
        ``RuntimeWarning``) so one bad subscriber cannot abort the
        batch.
    store:
        Optional :class:`repro.store.ArtifactStore` shared by every
        worker.  Circuits whose (fingerprint, config) pair is already
        archived are served from disk without executing any synthesis
        stage (``BatchItem.cached``); cold circuits persist their
        artefacts for the next run.
    order:
        Dispatch order: ``"cost"`` (default) starts circuits
        largest-first by :func:`predicted_cost`, cutting wall-clock
        tail latency on heterogeneous suites; ``"fifo"`` keeps input
        order.  Results are bit-identical and input-ordered either way.
    timeout_s:
        Per-circuit wall-clock budget; a circuit that exceeds it
        becomes a failed :class:`BatchItem` instead of stalling the
        batch.  Enforced everywhere by ``SIGALRM`` on the main thread
        of the process running the circuit: this one inline, a pool
        worker's otherwise.  Without ``SIGALRM`` (a non-POSIX host)
        each budgeted circuit fails with an error naming it.
    stage_jobs:
        Accepted and ignored, like ``FlowConfig.stage_jobs``: each
        flow runs its stages on one thread, and ``jobs`` is the only
        parallelism.

    Returns
    -------
    BatchResult
        Per-circuit :class:`BatchItem` records in input order; failures
        carry tracebacks instead of aborting the batch.
    """
    base_config = config or FlowConfig()
    if configs is not None and len(configs) != len(circuits):
        raise BatchError(
            f"configs length {len(configs)} != circuits length {len(circuits)}"
        )
    if jobs < 1:
        raise BatchError(f"jobs must be >= 1, got {jobs}")
    if order not in BATCH_ORDERS:
        raise BatchError(f"order must be one of {BATCH_ORDERS}, got {order!r}")
    check_timeout(timeout_s)

    described: List[tuple] = []
    items: List[BatchItem] = []
    for index, circuit in enumerate(circuits):
        kind, payload, name = _describe(circuit)
        item_config = configs[index] if configs is not None else base_config
        if per_circuit_seeds:
            item_config = item_config.replace(seed=derive_seed(item_config.seed, name))
        described.append((index, kind, payload, item_config))
        items.append(BatchItem(index=index, name=name, config=item_config))

    if order == "cost":
        # stable sort: equal-cost circuits keep input order
        described.sort(key=lambda job: -predicted_cost(job[1], job[2]))
    calls = [
        (i, partial(execute_one, kind, payload, cfg, store=store, timeout_s=timeout_s))
        for i, kind, payload, cfg in described
    ]

    total = len(calls)
    started = time.perf_counter()

    def finish(index: int, outcome: Outcome, done: int) -> None:
        item = items[index]
        item.result = outcome.result
        item.error = outcome.error
        item.runtime_s = outcome.runtime_s
        item.cached = outcome.cached
        notify_progress(progress, done, total, item)

    inline = jobs == 1 or total <= 1
    if timeout_s is not None and not _can_arm_alarm():
        # this thread cannot arm SIGALRM; pool workers' main threads can
        # (an empty batch needs neither)
        inline = total == 0
    if inline:
        for done, (index, call) in enumerate(calls, start=1):
            finish(index, call(), done)
    else:
        with process_pool(min(jobs, total), ignore_sigint=False) as pool:
            pending = {pool.submit(call): index for index, call in calls}
            done = 0
            while pending:
                completed, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in completed:
                    index = pending.pop(future)
                    exc = future.exception()
                    done += 1
                    # a pool-level failure (unpicklable payload, killed
                    # worker) is isolated to this item too
                    finish(
                        index,
                        future.result() if exc is None else Outcome.from_exception(exc),
                        done,
                    )

    return BatchResult(items=items, jobs=jobs, runtime_s=time.perf_counter() - started)


# ----------------------------------------------------------------------
# config sweeps


@dataclass
class SweepPoint:
    """One grid point: the derived config and its per-circuit outcomes."""

    params: Dict[str, Any]
    config: FlowConfig
    items: List[BatchItem]

    @property
    def results(self) -> List[FlowResult]:
        return [item.result for item in self.items if item.ok]

    @property
    def n_ok(self) -> int:
        return sum(1 for item in self.items if item.ok)

    @property
    def n_cached(self) -> int:
        return sum(1 for item in self.items if item.cached)

    def as_batch(self) -> BatchResult:
        """This point's items viewed as a :class:`BatchResult` (for the
        report/registry helpers that consume batches)."""
        return BatchResult(
            items=self.items,
            jobs=1,
            runtime_s=sum(item.runtime_s for item in self.items),
        )


@dataclass
class SweepResult:
    """All grid points of one :func:`sweep`, in grid-expansion order."""

    base_config: FlowConfig
    grid: Dict[str, List[Any]]
    circuits: List[str]
    points: List[SweepPoint]
    jobs: int
    runtime_s: float

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_items(self) -> int:
        return sum(len(point.items) for point in self.points)

    @property
    def n_ok(self) -> int:
        return sum(point.n_ok for point in self.points)

    @property
    def n_cached(self) -> int:
        return sum(point.n_cached for point in self.points)

    def point(self, **params: Any) -> SweepPoint:
        """The grid point with exactly the given parameter values."""
        for candidate in self.points:
            if all(candidate.params.get(k) == v for k, v in params.items()):
                return candidate
        raise KeyError(f"no sweep point matching {params!r}")

    def manifest(self) -> Dict[str, Any]:
        """Plain-data record of the sweep: base config provenance, the
        grid, and per-point outcome counts (not the full flow records —
        those live in the run registry / report files)."""
        return {
            "kind": "sweep",
            "base_config": self.base_config.to_dict(),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "circuits": list(self.circuits),
            "jobs": self.jobs,
            "runtime_s": self.runtime_s,
            "points": [
                {
                    "params": dict(point.params),
                    "n_ok": point.n_ok,
                    "n_failed": len(point.items) - point.n_ok,
                    "n_cached": point.n_cached,
                }
                for point in self.points
            ],
        }


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian expansion of a parameter grid, first key varying
    slowest (``itertools.product`` order, insertion-ordered keys)."""
    keys = list(grid)
    value_lists = [list(grid[k]) for k in keys]
    for key, values in zip(keys, value_lists):
        if not values:
            raise BatchError(f"sweep grid parameter {key!r} has no values")
    return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]


#: Sweep-grid key prefix addressing one optimizer-strategy parameter
#: (or reserved budget key) instead of a whole ``FlowConfig`` field.
OPTIMIZER_PARAM_PREFIX = "optimizer_params."


def point_config(base: FlowConfig, params: Mapping[str, Any]) -> FlowConfig:
    """One sweep point's config: ``base`` with the grid point applied.

    Plain keys are :class:`FlowConfig` fields (``optimizer`` included,
    so ``{"optimizer": ["pairwise", "anneal"]}`` sweeps strategies);
    ``optimizer_params.<param>`` keys merge into the base config's
    ``optimizer_params`` dict, so a grid can sweep one strategy knob
    (or budget key) without flattening the others.  A point that
    *switches* strategy keeps only the shared budget keys from the base
    params — one strategy's knobs never leak into another, which is
    what lets a strategy grid run over a base config tuned for its
    default strategy.  Unknown fields and invalid strategy params
    surface as :class:`ConfigError` from the config's own validation.
    """
    from repro.optimize import budget_only_params

    direct: Dict[str, Any] = {}
    nested: Dict[str, Any] = {}
    for key, value in params.items():
        if key.startswith(OPTIMIZER_PARAM_PREFIX):
            param = key[len(OPTIMIZER_PARAM_PREFIX):]
            if not param or "." in param:
                # ConfigError, not BatchError: a bad grid key is a config
                # mistake and the CLI turns ConfigError into a clean
                # exit-2 message instead of a traceback
                raise ConfigError(
                    f"bad sweep grid key {key!r} "
                    f"(expected {OPTIMIZER_PARAM_PREFIX}<param>)"
                )
            nested[param] = value
        elif "." in key:
            raise ConfigError(
                f"sweep grid key {key!r} is not sweepable (use a FlowConfig "
                f"field name or {OPTIMIZER_PARAM_PREFIX}<param>)"
            )
        else:
            direct[key] = value
    if (
        direct.get("optimizer") not in (None, base.optimizer)
        and "optimizer_params" not in direct
        and base.optimizer_params
    ):
        direct["optimizer_params"] = budget_only_params(base.optimizer_params)
    config = base.replace(**direct) if direct else base
    if nested:
        merged = dict(config.optimizer_params or {})
        merged.update(nested)
        config = config.replace(optimizer_params=merged)
    return config


def sweep(
    circuits: Sequence[CircuitLike],
    grid: Mapping[str, Sequence[Any]],
    config: Optional[FlowConfig] = None,
    *,
    jobs: int = 1,
    per_circuit_seeds: bool = False,
    progress: Optional[ProgressCallback] = None,
    store: Optional["ArtifactStore"] = None,  # noqa: F821
    order: str = "cost",
    timeout_s: Optional[float] = None,
) -> SweepResult:
    """Expand one base config over parameter grids and run the batch.

    ``grid`` maps :class:`FlowConfig` field names to the values to try
    (e.g. ``{"n_vectors": [1024, 4096], "timing_slack_fraction":
    [0.7, 0.85]}``); every circuit runs at every grid point, as one
    flat :func:`run_many` batch so workers stay busy across points.
    Optimizer strategies sweep like any other field
    (``{"optimizer": ["pairwise", "anneal"]}``), and
    ``optimizer_params.<param>`` keys sweep one strategy knob or budget
    key (``{"optimizer_params.max_evaluations": [32, 128]}``) — see
    :func:`point_config`.  Strategy grid points share the persistent
    prepared-network and probability artefacts (the strategy identity
    is deliberately outside :meth:`FlowConfig.cache_key`), while the
    per-strategy assignments and flow records stay separate.
    With a ``store``, grid points that only differ in downstream knobs
    share the persistent prepared-network and probability artefacts —
    the expensive prepare work happens once for the whole sweep — and
    re-running a sweep serves unchanged points entirely from disk.

    Returns a :class:`SweepResult` whose :meth:`~SweepResult.manifest`
    records the grid and per-point outcomes; archive it with
    :meth:`repro.store.RunStore.record_sweep`.
    """
    base_config = config or FlowConfig()
    if not grid:
        raise BatchError("sweep grid must name at least one FlowConfig parameter")
    param_sets = expand_grid(grid)
    point_configs = [point_config(base_config, params) for params in param_sets]

    circuit_list = list(circuits)
    if not circuit_list:
        raise BatchError("sweep needs at least one circuit")
    flat_circuits: List[CircuitLike] = []
    flat_configs: List[FlowConfig] = []
    for config_at_point in point_configs:
        flat_circuits.extend(circuit_list)
        flat_configs.extend([config_at_point] * len(circuit_list))

    started = time.perf_counter()
    batch = run_many(
        flat_circuits,
        base_config,
        configs=flat_configs,
        jobs=jobs,
        per_circuit_seeds=per_circuit_seeds,
        progress=progress,
        store=store,
        order=order,
        timeout_s=timeout_s,
    )

    points: List[SweepPoint] = []
    n = len(circuit_list)
    for i, (params, config_at_point) in enumerate(zip(param_sets, point_configs)):
        points.append(
            SweepPoint(
                params=params,
                config=config_at_point,
                items=batch.items[i * n : (i + 1) * n],
            )
        )
    return SweepResult(
        base_config=base_config,
        grid={k: list(v) for k, v in grid.items()},
        circuits=[item.name for item in batch.items[:n]],
        points=points,
        jobs=jobs,
        runtime_s=time.perf_counter() - started,
    )


def format_sweep(result: SweepResult) -> str:
    """Per-point summary table of a sweep."""
    param_names = list(result.grid)
    header = (
        "  ".join(f"{name:>14}" for name in param_names)
        + f"  {'ok':>5} {'cached':>6} {'%Area':>7} {'%Pwr':>7}"
    )
    lines = [
        f"Sweep over {result.n_points} point(s) x {len(result.circuits)} circuit(s)",
        "=" * len(header),
        header,
        "-" * len(header),
    ]
    for point in result.points:
        flows = point.results
        if flows:
            area = sum(f.area_penalty_percent for f in flows) / len(flows)
            power = sum(f.power_savings_percent for f in flows) / len(flows)
            area_s, power_s = f"{area:>7.1f}", f"{power:>7.1f}"
        else:
            area_s = power_s = f"{'n/a':>7}"
        lines.append(
            "  ".join(f"{str(point.params[name]):>14}" for name in param_names)
            + f"  {point.n_ok:>3}/{len(point.items):<1} {point.n_cached:>6} "
            + f"{area_s} {power_s}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{result.n_ok}/{result.n_items} runs ok, {result.n_cached} store-served, "
        f"{result.jobs} job(s), {result.runtime_s:.1f}s wall"
    )
    return "\n".join(lines)


def format_batch(batch: BatchResult, title: str = "Batch synthesis") -> str:
    """Human-readable batch summary: the paper-layout table for the
    successes, then one line per failure."""
    from repro.core.flow import format_table

    lines = [format_table(batch.rows(), title)]
    if batch.failures:
        lines.append("")
        lines.append(f"failed circuits ({batch.n_failed}/{len(batch.items)}):")
        for item in batch.failures:
            first = (item.error or "unknown error").splitlines()[0]
            lines.append(f"  {item.name:<16} {first}")
    lines.append("")
    cached = f"{batch.n_cached} store-served, " if batch.n_cached else ""
    lines.append(
        f"{batch.n_ok}/{len(batch.items)} circuits ok, {cached}"
        f"{batch.jobs} job(s), {batch.runtime_s:.1f}s wall"
    )
    return "\n".join(lines)

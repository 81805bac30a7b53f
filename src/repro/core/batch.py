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
  failed :class:`BatchItem` instead of stalling the whole pool.
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
from repro.core.config import POOL_WORKER_ENV, FlowConfig, _available_cpus
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
    :class:`FlowResult` (inside the fleet, its wire record until
    :class:`repro.fleet.FleetBackend` decodes it); ``error`` is the
    failure text, its first line naming the failure.
    """

    result: Any = None
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

    def __str__(self) -> str:
        # the watchdog guard raises the bare class via
        # PyThreadState_SetAsyncExc (no constructor call) — keep the
        # error text informative either way
        return super().__str__() or "flow exceeded its timeout_s budget"


def check_timeout(timeout_s: Optional[float], error: type = BatchError) -> None:
    """Raise ``error`` unless ``timeout_s`` is ``None`` or a budget the
    guards can arm: ``0 < timeout_s <= threading.TIMEOUT_MAX``.

    NaN fails the comparison; ``inf`` and anything above
    ``TIMEOUT_MAX`` overflow both ``setitimer`` and ``threading.Timer``.
    """
    if timeout_s is not None and not 0 < timeout_s <= threading.TIMEOUT_MAX:
        raise error(
            f"timeout_s must be in (0, {threading.TIMEOUT_MAX:g}] seconds, "
            f"got {timeout_s}"
        )


def _sigalrm_guard(timeout_s: float):
    """SIGALRM-based guard (POSIX main thread only); ``None`` if arming
    failed, so the caller can fall back to the thread-based guard.  The
    previous handler is restored whenever arming raises."""

    def _raise_timeout(signum, frame):
        raise ItemTimeout(f"flow exceeded timeout_s={timeout_s:g}")

    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    armed = False
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        armed = True
    except (ValueError, OSError):
        return None
    finally:
        if not armed:
            signal.signal(signal.SIGALRM, previous)

    def disarm() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)

    return disarm


#: Guards the per-thread watchdog generation tokens (and each
#: watchdog's ``fired`` flag): the fire/disarm race is decided by who
#: takes this lock first.
_WATCHDOG_LOCK = threading.Lock()

#: Monotonic generation token per thread ident.  Arming a watchdog
#: bumps the thread's token; the watchdog re-reads it *before* raising
#: and stands down on a mismatch, so a timer that out-lives its item
#: can never inject into the thread's next item.  Tokens are never
#: deleted (idents can be recycled across threads; monotonicity is what
#: keeps stale timers stale).
_WATCHDOG_GENERATION: Dict[int, int] = {}


class _ThreadWatchdog:
    """Async-exception watchdog for one guarded item on one thread.

    A daemon :class:`threading.Timer` raises :class:`ItemTimeout` in
    the *working* thread via ``PyThreadState_SetAsyncExc`` (CPython),
    which interrupts pure-Python flow code at the next bytecode
    boundary — it cannot break out of a blocking C call, but the flow's
    long poles (optimiser sweeps, Monte-Carlo loops) are pure Python.

    Disarming is race-free against a concurrently firing timer:

    * :meth:`fire` checks the thread's generation token under
      :data:`_WATCHDOG_LOCK` before injecting, so once :meth:`disarm`
      has bumped the token (same lock) no further injection can start —
      not into the finished item, and not into the thread's next one;
    * an injection that *already* started (``fired`` seen true) may
      still be undelivered, so :meth:`disarm` clears it with
      ``SetAsyncExc(tid, NULL)``;
    * the delivery can even land *inside* :meth:`disarm` (async
      exceptions surface at any bytecode boundary) — the method absorbs
      it, finishes the bookkeeping, and returns normally.  Callers get
      the same guarantee from :func:`_disarm_quietly`.
    """

    def __init__(self, timeout_s: float, set_async_exc) -> None:
        self._set_async_exc = set_async_exc
        self._tid = threading.get_ident()
        with _WATCHDOG_LOCK:
            self._generation = _WATCHDOG_GENERATION.get(self._tid, 0) + 1
            _WATCHDOG_GENERATION[self._tid] = self._generation
        self._fired = False
        self._timer = threading.Timer(timeout_s, self.fire)
        self._timer.daemon = True
        self._timer.start()

    def fire(self) -> None:
        """Timer callback (watchdog thread): inject iff still armed."""
        import ctypes

        with _WATCHDOG_LOCK:
            if _WATCHDOG_GENERATION.get(self._tid) != self._generation:
                return  # disarmed (or superseded): stand down
            self._fired = True
            self._set_async_exc(
                ctypes.c_ulong(self._tid), ctypes.py_object(ItemTimeout)
            )

    def _clear_pending(self) -> None:
        import ctypes

        self._set_async_exc(ctypes.c_ulong(self._tid), None)

    def disarm(self) -> None:
        """Stand the watchdog down; never lets a late fire escape."""
        try:
            self._timer.cancel()
            with _WATCHDOG_LOCK:
                if _WATCHDOG_GENERATION.get(self._tid) == self._generation:
                    _WATCHDOG_GENERATION[self._tid] = self._generation + 1
                fired = self._fired
            if fired:
                # the work finished between the timer firing and the
                # exception being delivered — clear the still-pending
                # injection so it cannot surface in unrelated code
                self._clear_pending()
        except ItemTimeout:
            # the injection landed mid-disarm (async exceptions surface
            # at any bytecode boundary): it is consumed here; finish the
            # bookkeeping so nothing further can fire
            with _WATCHDOG_LOCK:
                if _WATCHDOG_GENERATION.get(self._tid) == self._generation:
                    _WATCHDOG_GENERATION[self._tid] = self._generation + 1
            self._clear_pending()


def _thread_timeout_guard(timeout_s: float):
    """Watchdog-timer guard for non-main threads and non-POSIX hosts.

    Returns a race-free disarm callable (see :class:`_ThreadWatchdog`).
    When ``PyThreadState_SetAsyncExc`` is missing (non-CPython
    runtimes) the guard warns explicitly instead of silently dropping
    the budget.
    """
    try:
        import ctypes

        set_async_exc = ctypes.pythonapi.PyThreadState_SetAsyncExc
    except (ImportError, AttributeError):
        warnings.warn(
            f"timeout_s={timeout_s:g} cannot be enforced in this thread: "
            "no SIGALRM (non-main thread or platform) and no "
            "PyThreadState_SetAsyncExc — the budget is not applied",
            RuntimeWarning,
            stacklevel=4,
        )
        return lambda: None

    return _ThreadWatchdog(timeout_s, set_async_exc).disarm


def _disarm_quietly(disarm: Callable[[], None]) -> None:
    """Disarm a timeout guard, absorbing a timeout that fires in the
    completion window.

    Both guards can deliver :class:`ItemTimeout` *during* disarm (a
    pending ``SIGALRM`` handler, or an async injection surfacing at a
    bytecode boundary inside the disarm body).  The item is already
    finished by then, so the stray exception must end here — letting it
    propagate would abort an inline batch or fail the worker's *next*
    item.
    """
    try:
        disarm()
    except ItemTimeout:
        pass


def _timeout_guard(timeout_s: Optional[float]):
    """Arm a wall-clock guard for one job; returns a disarm callable.

    On the main thread of a POSIX process (the ``jobs > 1`` worker
    case) the guard uses ``SIGALRM``/``setitimer``, which interrupts
    even blocking C calls.  Off the main thread — e.g. ``run_many``
    invoked from a service executor or any user thread — or where
    ``SIGALRM`` does not exist, it falls back to a watchdog timer that
    raises :class:`ItemTimeout` in the working thread.  The caller must
    invoke the returned disarm callable in a ``finally`` block.
    """
    if not timeout_s:
        return lambda: None
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        disarm = _sigalrm_guard(timeout_s)
        if disarm is not None:
            return disarm
    return _thread_timeout_guard(timeout_s)


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
    actually be aborted.
    """
    if timeout_s and config.resolved_stage_jobs() > 1:
        # The guard interrupts *this* thread; hung work in a stage
        # thread would survive the ItemTimeout and then be joined by
        # the pipeline's executor shutdown — stalling exactly the way
        # timeout_s exists to prevent.  A budgeted item therefore runs
        # its stages sequentially: enforceability beats parallelism.
        config = config.replace(stage_jobs=1)
    start = time.perf_counter()
    try:
        disarm = _timeout_guard(timeout_s)
        try:
            network = materialize(kind, payload)
            from repro.core.pipeline import Pipeline

            # time the flow only, not circuit build/load — keeps
            # per-circuit runtimes comparable with the historical
            # sequential tables
            start = time.perf_counter()
            run = Pipeline(config, store=store).run(network)
            cached = all(s.cached or s.skipped for s in run.stages)
            return Outcome(run.flow, None, time.perf_counter() - start, cached)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            tb = traceback.format_exc()
            return Outcome(
                error=f"{detail}\n{tb}", runtime_s=time.perf_counter() - start
            )
        finally:
            _disarm_quietly(disarm)
    except ItemTimeout as exc:
        # async delivery can land on the handful of bytecodes between
        # the inner handlers and _disarm_quietly's guarded region; the
        # item effectively hit its budget, so record the normal timeout
        # failure instead of letting the stray exception abort the batch
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        return Outcome(error=detail, runtime_s=time.perf_counter() - start)


def mark_pool_worker() -> None:
    """Tag this process as a pool worker (see
    :data:`repro.core.config.POOL_WORKER_ENV`): ``stage_jobs=0`` (auto)
    then resolves to sequential stages, so a pool of N workers does not
    silently become N thread pools fighting for the same cores.  The
    environment variable (rather than a module flag) also reaches any
    process this worker might itself spawn."""
    os.environ[POOL_WORKER_ENV] = "1"


def _init_pool_worker(ignore_sigint: bool) -> None:
    """Initializer of every worker process :func:`process_pool` starts.

    A terminal Ctrl-C delivers SIGINT to the whole foreground process
    group, workers included.  ``run_many`` workers keep the default
    handler, so Ctrl-C aborts the batch; service and fleet workers
    ignore SIGINT, because their parent turns it into a graceful drain
    that the workers must survive to finish the in-flight circuits.
    """
    mark_pool_worker()
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
        with error isolation); ``>1`` uses a ``ProcessPoolExecutor``.
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
        batch.  Enforced with ``SIGALRM`` on the main thread of a POSIX
        process (worker processes included) and with a watchdog timer
        raising in the working thread everywhere else, so the budget
        holds when ``run_many`` is driven from a service thread; where
        neither mechanism exists an explicit ``RuntimeWarning`` is
        emitted.
    stage_jobs:
        Override every item config's ``FlowConfig.stage_jobs`` (MA/MP
        stage-level threads inside each flow; see
        :mod:`repro.core.pipeline`).  ``None`` keeps the configs' own
        setting; the default ``stage_jobs=0`` (auto) already turns
        stage threads off inside pool workers, so ``jobs`` and
        ``stage_jobs`` compose without oversubscription.  Results are
        bit-identical at any setting.  Items carrying a ``timeout_s``
        budget always run their stages sequentially (a stage thread
        cannot be interrupted by the guard), so the budget stays
        enforceable.

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
        if stage_jobs is not None and item_config.stage_jobs != stage_jobs:
            item_config = item_config.replace(stage_jobs=stage_jobs)
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

    if jobs == 1 or total <= 1:
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
    stage_jobs: Optional[int] = None,
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
        stage_jobs=stage_jobs,
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

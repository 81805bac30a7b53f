"""Asyncio job-queue service over the synthesis flow.

:class:`Service` turns the repo's batch machinery into a long-lived
server: submissions become jobs with ids, a bounded queue applies
backpressure, synthesis runs in a process pool driven from the event
loop (the loop never blocks on flow work), and every job exposes
status snapshots plus an ordered event stream for progress consumers.

Lifecycle of one job::

    submit(circuit, config) ──▶ queued ──▶ running ──▶ done | failed
                        │                      ▲
                        ├──▶ done (cached)     │  cancel() of a queued
                        └──▶ cancelled ────────┘  job never runs it

* **Backpressure** — the queue is bounded (``queue_size``); a
  submission that finds it full raises
  :class:`repro.errors.QueueFullError` instead of growing memory
  without limit.
* **Store-backed dedup** — with an :class:`repro.store.ArtifactStore`
  attached, a submission whose ``fingerprint() +
  FlowConfig.result_key()`` pair is already archived completes
  instantly with ``cached=True`` and never occupies a queue slot or a
  worker: zero synthesis stages execute
  (:meth:`repro.core.pipeline.Pipeline.cached_flow`).
* **Progress** — the service-level ``progress`` callback has the exact
  :data:`repro.core.batch.ProgressCallback` shape ``run_many`` uses,
  fed with :class:`repro.core.batch.BatchItem` records as jobs finish,
  and is isolated by the same helper
  (:func:`repro.core.batch.notify_progress`: a raising subscriber
  becomes a ``RuntimeWarning``, never a dead service).
* **Graceful shutdown** — ``shutdown(drain=True)`` refuses new
  submissions and completes queued + in-flight work before joining the
  worker processes; ``drain=False`` cancels queued jobs first.  Either
  way the pool is joined: no orphaned workers.

The synchronous flow entry points stay untouched: the service is a
layer over the execution spine of :mod:`repro.core.batch`.  Its local
backend runs :func:`~repro.core.batch.execute_one` in a
:func:`~repro.core.batch.process_pool` whose workers ignore SIGINT (so
Ctrl-C drains instead of killing flows mid-stage), and every backend
hands back the same :class:`~repro.core.batch.Outcome` ``run_many``
records.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, AsyncIterator, Deque, Dict, List, Optional

logger = logging.getLogger(__name__)

from repro.errors import (
    QueueFullError,
    ServeError,
    ServiceClosedError,
    UnknownJobError,
)
from repro.core.batch import (
    BatchItem,
    CircuitLike,
    Outcome,
    ProgressCallback,
    _describe,
    check_timeout,
    default_jobs,
    execute_one,
    materialize,
    notify_progress,
    process_pool,
)
from repro.core.config import FlowConfig
from repro.core.flow import FlowResult

#: Job lifecycle states; ``done``/``failed``/``cancelled`` are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Terminal job states.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Queue sentinel that tells a dispatcher to exit.
_STOP = object()

#: Default bound on retained *finished* jobs (see ``Service.max_history``).
DEFAULT_MAX_HISTORY = 1024


class ExecutionBackend:
    """Strategy interface deciding *where* a job's circuit runs.

    The :class:`Service` owns submissions, the queue, job states, and
    events; the backend owns execution.  Two implementations ship:
    :class:`LocalPoolBackend` (a process pool on this host — the
    historical behaviour and the default) and
    :class:`repro.fleet.FleetBackend` (a coordinator leasing jobs to a
    fleet of remote workers).  Both return an
    :class:`~repro.core.batch.Outcome` from :meth:`execute`, so the
    service surface — submit/status/events/cancel/healthz — is
    byte-identical whichever backend runs the flow.
    """

    #: Concurrent executions the backend can absorb — the service runs
    #: this many dispatcher tasks.
    slots: int = 1

    async def start(self) -> None:
        """Bring up execution resources (pools, listeners)."""

    async def shutdown(self) -> None:
        """Release execution resources; every worker joined, no orphans."""

    async def abort_pending(self) -> None:
        """Fail work the backend holds but has not started (called on a
        non-draining shutdown so dispatchers cannot wait forever on
        work no one will ever pick up).  Default: nothing held."""

    async def execute(self, job: "Job") -> Outcome:
        """Run one job's circuit to its :class:`Outcome`."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """JSON-safe backend health record (merged into ``/healthz``)."""
        return {"kind": type(self).__name__, "slots": self.slots}


class LocalPoolBackend(ExecutionBackend):
    """Execute jobs in a local :func:`~repro.core.batch.process_pool`
    (one host) whose workers ignore SIGINT."""

    def __init__(
        self,
        workers: Optional[int] = None,
        store: Optional["ArtifactStore"] = None,  # noqa: F821
    ) -> None:
        if workers is not None and workers < 1:
            raise ServeError(f"jobs must be >= 1, got {workers}")
        self.slots = workers or default_jobs()
        self.store = store
        self._pool: Optional[ProcessPoolExecutor] = None

    async def start(self) -> None:
        self._pool = process_pool(self.slots, ignore_sigint=True)

    async def shutdown(self) -> None:
        if self._pool is not None:
            # every future is resolved once the dispatchers exit, so
            # this only joins the (idle) worker processes
            self._pool.shutdown(wait=True)
            self._pool = None

    async def execute(self, job: "Job") -> Outcome:
        kind, payload = job.work
        return await asyncio.get_running_loop().run_in_executor(
            self._pool,
            partial(
                execute_one,
                kind,
                payload,
                job.config,
                store=self.store,
                timeout_s=job.timeout_s,
            ),
        )

    def stats(self) -> Dict[str, Any]:
        return {"kind": "local-pool", "slots": self.slots}


@dataclass
class Job:
    """One submission and everything that happened to it."""

    job_id: str
    name: str
    config: FlowConfig
    timeout_s: Optional[float] = None
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    runtime_s: float = 0.0
    cached: bool = False
    result: Optional[FlowResult] = None
    error: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: picklable ``(kind, payload)`` description handed to the worker
    work: Any = field(default=None, repr=False)

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def ok(self) -> bool:
        return self.state == "done" and self.result is not None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe status record (what ``GET /jobs/<id>`` returns)."""
        snap: Dict[str, Any] = {
            "job_id": self.job_id,
            "name": self.name,
            "state": self.state,
            "cached": self.cached,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "runtime_s": self.runtime_s,
            "n_events": len(self.events),
        }
        if self.error is not None:
            snap["error"] = self.error
        if self.result is not None:
            snap["row"] = self.result.row()
        return snap


class Service:
    """Async job-queue front-end for the synthesis flow.

    Parameters
    ----------
    config:
        Default :class:`FlowConfig` for submissions that do not carry
        their own.
    jobs:
        Worker processes of the default :class:`LocalPoolBackend`
        (defaults to :func:`default_jobs`); also the number of
        dispatcher tasks, so at most ``jobs`` circuits are in flight at
        once.  Ignored when an explicit ``backend`` is given.
    backend:
        Optional :class:`ExecutionBackend` deciding where circuits run;
        default is a :class:`LocalPoolBackend` over ``jobs`` processes
        sharing ``store``.  Pass a :class:`repro.fleet.FleetBackend` to
        lease jobs to a distributed worker fleet instead — the service
        surface and results are identical either way.
    queue_size:
        Bound on the number of *queued* (not yet running) jobs; a full
        queue rejects submissions with :class:`QueueFullError`.
    store:
        Optional :class:`repro.store.ArtifactStore` shared by the
        workers and used for submit-time dedup.
    timeout_s:
        Default per-job wall-clock budget (overridable per submission).
    max_history:
        Bound on *finished* jobs retained for status/event queries; the
        oldest finished records are evicted past it, so a long-lived
        service cannot grow without bound.  Queued and running jobs are
        never evicted.
    progress:
        Optional :data:`ProgressCallback` fired (isolated) as each job
        reaches a terminal state, with a :class:`BatchItem` view of the
        job; ``done`` counts finished jobs, ``total`` counts accepted
        submissions so far (rejected ones excluded, evicted ones kept).

    Use as an async context manager, or call :meth:`start` /
    :meth:`shutdown` explicitly::

        async with Service(config, store=store) as service:
            job_id = await service.submit("design.blif")
            job = await service.result(job_id)
    """

    def __init__(
        self,
        config: Optional[FlowConfig] = None,
        *,
        jobs: Optional[int] = None,
        queue_size: int = 64,
        store: Optional["ArtifactStore"] = None,  # noqa: F821
        timeout_s: Optional[float] = None,
        max_history: int = DEFAULT_MAX_HISTORY,
        progress: Optional[ProgressCallback] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        if queue_size < 1:
            raise ServeError(f"queue_size must be >= 1, got {queue_size}")
        if jobs is not None and jobs < 1:
            raise ServeError(f"jobs must be >= 1, got {jobs}")
        check_timeout(timeout_s, ServeError)
        if max_history < 1:
            raise ServeError(f"max_history must be >= 1, got {max_history}")
        self.config = config or FlowConfig()
        self._backend = backend or LocalPoolBackend(jobs, store)
        self.workers = self._backend.slots
        self.queue_size = queue_size
        self.store = store
        self.default_timeout_s = timeout_s
        self.max_history = max_history
        self.progress = progress
        self.state = "new"  # new -> running -> closing -> closed
        self._jobs: Dict[str, Job] = {}
        self._finished_ids: Deque[str] = deque()
        self._ids = itertools.count(1)
        self._queue: Optional[asyncio.Queue] = None
        self._dispatchers: List[asyncio.Task] = []
        self._changed: Optional[asyncio.Condition] = None
        self._n_accepted = 0
        self._n_finished = 0

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend jobs run on."""
        return self._backend

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> "Service":
        """Create the queue, execution backend, and dispatcher tasks."""
        if self.state != "new":
            raise ServeError(f"cannot start a service in state {self.state!r}")
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._changed = asyncio.Condition()
        await self._backend.start()
        self.workers = self._backend.slots
        self._dispatchers = [
            asyncio.create_task(self._dispatch(), name=f"repro-serve-dispatch-{i}")
            for i in range(self.workers)
        ]
        self.state = "running"
        logger.info(
            "service running: %d slot(s), queue %d, backend %s",
            self.workers,
            self.queue_size,
            self._backend.stats().get("kind", type(self._backend).__name__),
        )
        return self

    async def __aenter__(self) -> "Service":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop the service and join every worker (no orphans).

        ``drain=True`` completes queued and in-flight jobs first;
        ``drain=False`` cancels queued jobs (they finish ``cancelled``)
        and only waits for circuits already running — a flow mid-stage
        cannot be preempted without killing its process.
        """
        if self.state in ("closing", "closed"):
            return
        if self.state == "new":
            self.state = "closed"
            return
        self.state = "closing"
        logger.info("service closing (drain=%s)", drain)
        if not drain:
            while True:
                try:
                    job = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if job is not _STOP and not job.finished:
                    await self._finish_cancelled(job)
            # a backend holding undispatched work (a fleet coordinator
            # with no live workers) must fail it now, or the dispatcher
            # gather below waits forever on work no one will run
            await self._backend.abort_pending()
        for _ in self._dispatchers:
            await self._queue.put(_STOP)
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        await self._backend.shutdown()
        self.state = "closed"
        logger.info("service closed")
        async with self._changed:
            self._changed.notify_all()

    # ------------------------------------------------------------------
    # submission API

    async def submit(
        self,
        circuit: CircuitLike,
        config: Optional[FlowConfig] = None,
        *,
        timeout_s: Optional[float] = None,
        name: Optional[str] = None,
    ) -> str:
        """Queue one circuit; returns its job id.

        Raises :class:`QueueFullError` when the bounded queue is full
        (backpressure — retry later) and :class:`ServiceClosedError`
        once shutdown has begun.  With a store attached, a submission
        whose result is already archived completes immediately
        (``cached=True``) without consuming a queue slot.
        """
        if self.state != "running":
            raise ServiceClosedError(
                f"service is {self.state}; submissions are closed"
            )
        check_timeout(timeout_s, ServeError)
        job_config = config or self.config
        kind, payload, described_name = _describe(circuit)
        job = Job(
            job_id=f"job-{next(self._ids)}",
            name=name or described_name,
            config=job_config,
            timeout_s=timeout_s if timeout_s is not None else self.default_timeout_s,
            submitted_at=time.time(),
        )
        job.work = (kind, payload)
        self._jobs[job.job_id] = job

        if self.store is not None:
            cached = await asyncio.get_running_loop().run_in_executor(
                None, self._probe_store, kind, payload, job_config
            )
            if cached is not None:
                job.result = cached
                job.cached = True
                logger.info(
                    "%s %s served from store (dedup)", job.job_id, job.name
                )
                self._n_accepted += 1
                await self._finish(job, "done")
                return job.job_id
            if self.state != "running":
                # shutdown began while the probe ran off-loop: the
                # dispatchers are gone, so enqueueing now would strand
                # the job in "queued" forever
                del self._jobs[job.job_id]
                raise ServiceClosedError(
                    f"service is {self.state}; submissions are closed"
                )

        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            del self._jobs[job.job_id]
            raise QueueFullError(
                f"job queue is full ({self.queue_size} queued); retry later"
            ) from None
        self._n_accepted += 1
        logger.info(
            "%s %s queued (%d waiting)", job.job_id, job.name, self._queue.qsize()
        )
        await self._emit(job, queued=self._queue.qsize())
        return job.job_id

    def _probe_store(self, kind: str, payload, config: FlowConfig):
        """Submit-time dedup: the archived FlowResult, or ``None``.

        Runs in a thread (BLIF parsing / spec building can be slow);
        failures fall through to a normal queued run, where the worker
        will surface the real error with a full traceback.
        """
        from repro.core.pipeline import Pipeline

        try:
            network = materialize(kind, payload)
            return Pipeline(config, store=self.store).cached_flow(network)
        except Exception:  # noqa: BLE001 — probe must never block intake
            return None

    # ------------------------------------------------------------------
    # inspection API

    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> Dict[str, Any]:
        """JSON-safe snapshot of one job."""
        return self.job(job_id).snapshot()

    def jobs_snapshot(self) -> List[Dict[str, Any]]:
        """Snapshots of every job, oldest first."""
        return [job.snapshot() for job in self._jobs.values()]

    async def stats(self) -> Dict[str, Any]:
        """Service-level health record (what ``GET /healthz`` returns).

        ``queue_depth`` counts every job still in ``queued`` state —
        both those waiting in the bounded intake queue and those a
        dispatcher has not yet transitioned — so it is the number a
        load balancer should watch, while ``queue_size`` is the bound
        that turns into HTTP 429.  ``backend`` carries the execution
        backend's own health record: the local pool reports its size; a
        fleet backend reports workers by state (registered/idle/busy/
        quarantined/dead), lease and job counts, and the affinity
        hit/miss counters.  ``store_backend`` carries the artifact
        store's per-backend entry/byte/hit/miss/eviction breakdown
        (nested per tier for a tiered store).  That record walks every
        store entry, so it is built in a thread: requests and event
        streams keep being served meanwhile.
        """
        store_backend = None
        if self.store is not None:
            store_backend = await asyncio.get_running_loop().run_in_executor(
                None, self.store.backend.stats
            )
        by_state: Dict[str, int] = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            by_state[job.state] += 1
        return {
            "state": self.state,
            "workers": self.workers,
            "queue_size": self.queue_size,
            "queue_depth": by_state["queued"],
            "jobs": by_state,
            "store": str(self.store.root) if self.store is not None else None,
            "store_backend": store_backend,
            "backend": self._backend.stats(),
        }

    async def result(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Wait until the job reaches a terminal state; returns the job.

        Inspect ``job.result`` / ``job.error`` / ``job.cached`` on the
        returned record.  ``timeout`` bounds the wait, raising
        :class:`asyncio.TimeoutError`.
        """
        job = self.job(job_id)

        async def _wait() -> Job:
            async with self._changed:
                await self._changed.wait_for(lambda: job.finished)
            return job

        if timeout is not None:
            return await asyncio.wait_for(_wait(), timeout)
        return await _wait()

    async def events(
        self, job_id: str, *, from_seq: int = 0
    ) -> AsyncIterator[Dict[str, Any]]:
        """Ordered event stream of one job, ending after its terminal
        event; ``from_seq`` resumes a dropped stream without replaying."""
        job = self.job(job_id)
        seq = from_seq
        while True:
            async with self._changed:
                await self._changed.wait_for(
                    lambda: len(job.events) > seq or job.finished
                )
                pending = list(job.events[seq:])
            for event in pending:
                yield event
            seq += len(pending)
            if job.finished and seq >= len(job.events):
                return

    async def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; returns ``True`` iff it will not run.

        A job that already started is **never** reported cancelled:
        a running circuit cannot be preempted (it executes in a worker
        process mid-flow), and cancelling the asyncio future around it
        is a lie — ``Future.cancel()`` happily "succeeds" on a pending
        asyncio future whose pool work is already executing (or even
        finished), which used to tell the client *cancelled* while the
        worker kept running.  Running and terminal jobs therefore both
        return ``False``; terminal-state transitions stay one-way
        (:meth:`_finish` ignores any second transition), so a worker
        completing after a cancel can never overwrite ``cancelled``
        with ``done``, and vice versa.
        """
        job = self.job(job_id)
        if job.state == "queued":
            await self._finish_cancelled(job)
            return True
        return False

    # ------------------------------------------------------------------
    # internals

    async def _dispatch(self) -> None:
        while True:
            job = await self._queue.get()
            if job is _STOP:
                return
            if job.finished:  # cancelled while queued
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.started_at = time.time()
        logger.info("%s %s started", job.job_id, job.name)
        await self._emit(job)
        try:
            outcome = await self._backend.execute(job)
        except asyncio.CancelledError:  # pragma: no cover — shutdown race
            await self._finish_cancelled(job)
            return
        except Exception as exc:  # noqa: BLE001 — backend-level failure
            outcome = Outcome.from_exception(exc)
        job.result = outcome.result
        job.error = outcome.error
        job.runtime_s = outcome.runtime_s
        job.cached = outcome.cached
        await self._finish(job, "done" if outcome.error is None else "failed")

    async def _finish_cancelled(self, job: Job) -> None:
        await self._finish(job, state="cancelled")

    async def _finish(self, job: Job, state: str) -> None:
        if job.finished:  # cancel/shutdown race: first terminal state wins
            return
        job.state = state
        job.finished_at = time.time()
        self._n_finished += 1
        if state == "failed":
            logger.warning(
                "%s %s failed after %.1fs: %s",
                job.job_id,
                job.name,
                job.runtime_s,
                (job.error or "unknown error").splitlines()[0],
            )
        else:
            logger.info(
                "%s %s %s after %.1fs%s",
                job.job_id,
                job.name,
                state,
                job.runtime_s,
                " (cached)" if job.cached else "",
            )
        # bound retained history: only finished jobs are evictable, so a
        # long-lived service's memory stays proportional to max_history
        self._finished_ids.append(job.job_id)
        while len(self._finished_ids) > self.max_history:
            evicted = self._finished_ids.popleft()
            self._jobs.pop(evicted, None)
        await self._emit(job)
        if self.progress is not None:
            item = BatchItem(
                index=self._n_finished,
                name=job.name,
                config=job.config,
                result=job.result,
                error=job.error if job.state != "cancelled" else "cancelled",
                runtime_s=job.runtime_s,
                cached=job.cached,
            )
            # total counts accepted submissions, not retained records:
            # max_history eviction must never make done exceed total
            notify_progress(self.progress, self._n_finished, self._n_accepted, item)

    async def _emit(self, job: Job, **extra: Any) -> None:
        event: Dict[str, Any] = {
            "seq": len(job.events),
            "job_id": job.job_id,
            "name": job.name,
            "state": job.state,
            "t": time.time(),
            "cached": job.cached,
        }
        if job.error is not None:
            event["error"] = job.error.splitlines()[0]
        if job.state == "done" and job.result is not None:
            event["row"] = job.result.row()
        event.update(extra)
        job.events.append(event)
        async with self._changed:
            self._changed.notify_all()

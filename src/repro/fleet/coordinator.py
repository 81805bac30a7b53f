"""Fleet coordinator: job queue, leases, supervision, affinity routing.

The :class:`Coordinator` is the single owner of the distributed job
queue.  Workers (:mod:`repro.fleet.worker`) connect over TCP, register,
heartbeat, and *pull* work by opening leases; the coordinator never
pushes past a worker's open leases, so a slow worker is never buried.
Its supervision contract, modeled on gridworks-scada's ``proactor``
actor tree (monitor the children, restart the work not the process):

* **dead worker** — a closed connection or ``miss_limit`` missed
  heartbeats marks the worker dead and requeues every job it had in
  flight; each requeue burns one attempt, and a job lost
  ``max_requeues + 1`` times surfaces as a normal item failure (the
  same error-isolation shape as the local pool).
* **failing worker** — a worker whose jobs keep *failing* (the flow
  raised: deterministic failures are reported, not retried) builds a
  failure streak; at ``quarantine_after`` consecutive failures it is
  quarantined out of the rotation (told so via
  :class:`~repro.fleet.protocol.Quarantine`, in-flight jobs may
  finish).  A success resets the streak.  Quarantine survives
  reconnection — a crashing worker cannot launder its record by
  re-registering under the same id.
* **affinity routing** — every completed job records its network
  fingerprint as *warm* on the worker that ran it (workers also
  announce store-warm fingerprints at registration), and dispatch
  prefers a warm worker for a repeat fingerprint, falling back to the
  least-loaded live worker.  Repeat traffic for the same circuit lands
  where the artefact store already holds its products.

:class:`FleetBackend` adapts the coordinator to the
:class:`repro.serve.service.ExecutionBackend` interface, which is how
``repro-domino fleet coordinator`` serves the exact HTTP surface of
``repro-domino serve`` with a fleet doing the synthesis.  Every fleet
job resolves to the spine's :class:`~repro.core.batch.Outcome`; the
worker's wire flow record is decoded where it enters, so the
``result`` is the same :class:`~repro.core.flow.FlowResult` whichever
backend ran the circuit.  Cancelling is the service's alone:
:meth:`~repro.serve.service.Service.cancel` stops a job only while the
service still queues it, so a job that reaches the coordinator always
runs to an outcome.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Set, Tuple

from repro.errors import FleetError, ProtocolError
from repro.core.batch import Outcome, check_timeout
from repro.core.config import FlowConfig
from repro.fleet.protocol import (
    Goodbye,
    Heartbeat,
    JobAssign,
    JobFailed,
    JobProgress,
    JobResult,
    Lease,
    Message,
    Quarantine,
    Register,
    Registered,
    Requeue,
    encode_work,
    recv_message,
    send_message,
    work_fingerprint,
)
from repro.report import flow_result_from_dict

logger = logging.getLogger(__name__)

#: Fleet job lifecycle states.
FLEET_JOB_STATES = ("pending", "leased", "running", "done", "failed")

#: Worker lifecycle states the coordinator tracks.
WORKER_STATES = ("idle", "busy", "quarantined", "dead")

#: Default TCP port of the worker bus (the HTTP front-end is separate).
DEFAULT_FLEET_PORT = 7070


@dataclass
class FleetJob:
    """One unit of work the coordinator owns until a worker completes it."""

    job_id: str
    name: str
    work: Dict[str, Any]
    config: FlowConfig
    timeout_s: Optional[float] = None
    fingerprint: Optional[str] = None
    #: times this job was lost with a dead worker and requeued
    attempts: int = 0
    state: str = "pending"
    assigned_to: Optional[str] = None
    future: Optional[asyncio.Future] = None

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")


@dataclass
class WorkerHandle:
    """Coordinator-side record of one registered worker connection."""

    worker_id: str
    host: str
    pid: int
    slots: int
    writer: Any
    seq: int  # registration order; deterministic tie-break
    state: str = "idle"
    last_seen: float = 0.0
    open_leases: int = 0
    inflight: Dict[str, FleetJob] = field(default_factory=dict)
    warm: Set[str] = field(default_factory=set)
    failure_streak: int = 0
    jobs_done: int = 0
    jobs_failed: int = 0
    _send_lock: asyncio.Lock = field(default_factory=asyncio.Lock)

    @property
    def live(self) -> bool:
        return self.state in ("idle", "busy")

    def refresh_state(self) -> None:
        if self.state in ("quarantined", "dead"):
            return
        self.state = "busy" if self.inflight else "idle"

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe record for ``/healthz`` backend stats."""
        return {
            "worker_id": self.worker_id,
            "host": self.host,
            "pid": self.pid,
            "slots": self.slots,
            "state": self.state,
            "open_leases": self.open_leases,
            "inflight": len(self.inflight),
            "warm_fingerprints": len(self.warm),
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "failure_streak": self.failure_streak,
        }


class Coordinator:
    """TCP server owning the fleet job queue and worker supervision.

    Parameters
    ----------
    host, port:
        Worker-bus bind address; ``port=0`` picks a free port (written
        back to :attr:`port` after :meth:`start`).
    heartbeat_interval_s:
        Heartbeat cadence workers are told at registration.
    miss_limit:
        Consecutive missed heartbeats before a worker is declared dead.
    max_requeues:
        Times one job may be requeued off dead workers before it
        surfaces as a failure.
    quarantine_after:
        Consecutive job failures that quarantine a worker.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_FLEET_PORT,
        heartbeat_interval_s: float = 2.0,
        miss_limit: int = 3,
        max_requeues: int = 2,
        quarantine_after: int = 3,
    ) -> None:
        if heartbeat_interval_s <= 0:
            raise FleetError(
                f"heartbeat_interval_s must be positive, got {heartbeat_interval_s}"
            )
        if miss_limit < 1:
            raise FleetError(f"miss_limit must be >= 1, got {miss_limit}")
        if max_requeues < 0:
            raise FleetError(f"max_requeues must be >= 0, got {max_requeues}")
        if quarantine_after < 1:
            raise FleetError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.host = host
        self.port = port
        self.heartbeat_interval_s = heartbeat_interval_s
        self.miss_limit = miss_limit
        self.max_requeues = max_requeues
        self.quarantine_after = quarantine_after
        self.state = "new"  # new -> running -> closed
        self.workers: Dict[str, WorkerHandle] = {}
        self.jobs: Dict[str, FleetJob] = {}
        self.affinity_hits = 0
        self.affinity_misses = 0
        self._pending: Deque[str] = deque()
        self._ids = itertools.count(1)
        self._seq = itertools.count(1)
        self._server: Optional[asyncio.base_events.Server] = None
        self._monitor: Optional[asyncio.Task] = None
        #: quarantine/failure memory by worker_id, surviving reconnects
        self._records: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> "Coordinator":
        if self.state != "new":
            raise FleetError(f"cannot start a coordinator in state {self.state!r}")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._monitor = asyncio.create_task(
            self._monitor_heartbeats(), name="repro-fleet-monitor"
        )
        self.state = "running"
        logger.info("coordinator listening on %s:%d", self.host, self.port)
        return self

    async def stop(self) -> None:
        """Close the worker bus; unfinished jobs fail with a clear error."""
        if self.state != "running":
            self.state = "closed"
            return
        self.state = "closed"
        self._monitor.cancel()
        try:
            await self._monitor
        except asyncio.CancelledError:
            pass
        self._server.close()
        await self._server.wait_closed()
        for worker in list(self.workers.values()):
            try:
                worker.writer.close()
            except Exception:  # noqa: BLE001 — already-broken transports
                pass
        for job in list(self.jobs.values()):
            if not job.finished:
                self._resolve(job, Outcome(error="coordinator stopped"))
        logger.info("coordinator stopped")

    async def __aenter__(self) -> "Coordinator":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # job API (what FleetBackend and tests drive)

    async def submit(
        self,
        work: Dict[str, Any],
        config: FlowConfig,
        *,
        name: str = "job",
        timeout_s: Optional[float] = None,
        fingerprint: Optional[str] = None,
    ) -> str:
        """Queue one wire-encoded work payload; returns the fleet job id."""
        if self.state != "running":
            raise FleetError(f"coordinator is {self.state}; submissions are closed")
        check_timeout(timeout_s, FleetError)
        job = FleetJob(
            job_id=f"fleet-{next(self._ids)}",
            name=name,
            work=work,
            config=config,
            timeout_s=timeout_s,
            fingerprint=fingerprint,
            future=asyncio.get_running_loop().create_future(),
        )
        self.jobs[job.job_id] = job
        self._pending.append(job.job_id)
        await self._dispatch()
        return job.job_id

    async def outcome(self, job_id: str) -> Outcome:
        """Await one job's terminal :class:`Outcome`; its ``result`` is
        the decoded :class:`~repro.core.flow.FlowResult`."""
        try:
            job = self.jobs[job_id]
        except KeyError:
            raise FleetError(f"unknown fleet job id {job_id!r}") from None
        return await asyncio.shield(job.future)

    def stats(self) -> Dict[str, Any]:
        """JSON-safe fleet health record (``/healthz`` ``backend`` key)."""
        by_state = {state: 0 for state in WORKER_STATES}
        for worker in self.workers.values():
            by_state[worker.state] += 1
        jobs_by_state = {state: 0 for state in FLEET_JOB_STATES}
        for job in self.jobs.values():
            jobs_by_state[job.state] += 1
        routed = self.affinity_hits + self.affinity_misses
        return {
            "kind": "fleet",
            "fleet_host": self.host,
            "fleet_port": self.port,
            "workers": by_state,
            "registered": sum(1 for w in self.workers.values() if w.live)
            + by_state["quarantined"],
            "workers_detail": [
                w.snapshot()
                for w in sorted(self.workers.values(), key=lambda w: w.seq)
            ],
            "jobs": jobs_by_state,
            "pending": len(self._pending),
            "open_leases": sum(
                w.open_leases for w in self.workers.values() if w.live
            ),
            "affinity": {
                "hits": self.affinity_hits,
                "misses": self.affinity_misses,
                "hit_rate": (self.affinity_hits / routed) if routed else 0.0,
            },
        }

    # ------------------------------------------------------------------
    # connection handling

    async def _handle_connection(self, reader, writer) -> None:
        worker: Optional[WorkerHandle] = None
        try:
            try:
                hello = await asyncio.wait_for(
                    recv_message(reader), timeout=self.heartbeat_interval_s * 10
                )
            except asyncio.TimeoutError:
                logger.warning("connection never registered; dropping it")
                return
            if not isinstance(hello, Register):
                raise ProtocolError(
                    f"expected register, got {type(hello).TYPE or 'garbage'}"
                )
            worker = await self._register(hello, writer)
            while True:
                msg = await recv_message(reader)
                await self._handle_message(worker, msg)
                if worker.state == "dead":  # goodbye processed
                    return
        except asyncio.CancelledError:
            # loop teardown after stop(): exit quietly, the finally
            # block closes the transport
            return
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            ProtocolError,
            OSError,
        ) as exc:
            if worker is not None and worker.state not in ("dead",):
                await self._worker_lost(
                    worker, f"connection lost ({type(exc).__name__}: {exc})"
                )
            elif worker is None and not isinstance(
                exc, (asyncio.IncompleteReadError, ConnectionError)
            ):
                logger.warning("dropping unregistered connection: %s", exc)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _register(self, msg: Register, writer) -> WorkerHandle:
        previous = self.workers.get(msg.worker_id)
        if previous is not None and previous.live:
            # a second connection claiming a live id: the old one is a
            # zombie (half-closed TCP) — supersede it, requeue its jobs
            await self._worker_lost(previous, "superseded by re-registration")
        worker = WorkerHandle(
            worker_id=msg.worker_id,
            host=msg.host,
            pid=msg.pid,
            slots=msg.slots,
            writer=writer,
            seq=next(self._seq),
            last_seen=time.monotonic(),
            warm=set(msg.warm_fingerprints),
        )
        record = self._records.setdefault(
            msg.worker_id, {"failure_streak": 0, "quarantined": False, "warm": set()}
        )
        worker.failure_streak = record["failure_streak"]
        worker.warm |= record["warm"]
        if record["quarantined"]:
            worker.state = "quarantined"
        self.workers[msg.worker_id] = worker
        await self._send(
            worker,
            Registered(
                worker_id=worker.worker_id,
                heartbeat_interval_s=self.heartbeat_interval_s,
                miss_limit=self.miss_limit,
            ),
        )
        logger.info(
            "worker %s registered (%s pid %d, %d slot(s), %d warm fingerprint(s))%s",
            worker.worker_id,
            worker.host,
            worker.pid,
            worker.slots,
            len(worker.warm),
            " [quarantined]" if worker.state == "quarantined" else "",
        )
        if worker.state == "quarantined":
            await self._send(
                worker,
                Quarantine(
                    worker_id=worker.worker_id,
                    reason="quarantined before reconnect; record persists",
                ),
            )
        return worker

    async def _handle_message(self, worker: WorkerHandle, msg: Message) -> None:
        worker.last_seen = time.monotonic()
        if isinstance(msg, Heartbeat):
            return
        if isinstance(msg, Lease):
            worker.open_leases += msg.slots
            await self._dispatch()
            return
        if isinstance(msg, JobProgress):
            job = worker.inflight.get(msg.job_id)
            if job is not None and msg.state == "running":
                job.state = "running"
            return
        if isinstance(msg, JobResult):
            await self._job_result(worker, msg)
            return
        if isinstance(msg, JobFailed):
            await self._job_failed(worker, msg)
            return
        if isinstance(msg, Requeue):
            await self._worker_requeue(worker, msg)
            return
        if isinstance(msg, Goodbye):
            await self._goodbye(worker, msg)
            return
        raise ProtocolError(
            f"unexpected {type(msg).TYPE} message from worker {worker.worker_id}"
        )

    # ------------------------------------------------------------------
    # message handlers

    async def _job_result(self, worker: WorkerHandle, msg: JobResult) -> None:
        job = worker.inflight.pop(msg.job_id, None)
        worker.refresh_state()
        if job is None or job.finished:
            logger.info(
                "discarding result for %s from %s (no longer assigned to it)",
                msg.job_id,
                worker.worker_id,
            )
            return
        worker.jobs_done += 1
        worker.failure_streak = 0
        self._records[worker.worker_id]["failure_streak"] = 0
        fingerprint = msg.fingerprint or job.fingerprint
        if fingerprint:
            worker.warm.add(fingerprint)
            self._records[worker.worker_id]["warm"].add(fingerprint)
        logger.info(
            "%s %s done on %s in %.1fs%s",
            job.job_id,
            job.name,
            worker.worker_id,
            msg.runtime_s,
            " (cached)" if msg.cached else "",
        )
        try:
            flow = flow_result_from_dict(msg.flow)
        except ValueError as exc:
            # the flow ran; only its record is bad, so only this job fails
            context = f"undecodable flow record from {worker.worker_id}: "
            logger.warning("%s %s: %s%s", job.job_id, job.name, context, exc)
            self._resolve(job, Outcome.from_exception(exc, context))
            return
        self._resolve(job, Outcome(flow, runtime_s=msg.runtime_s, cached=msg.cached))

    async def _job_failed(self, worker: WorkerHandle, msg: JobFailed) -> None:
        job = worker.inflight.pop(msg.job_id, None)
        worker.refresh_state()
        if job is None or job.finished:
            return
        worker.jobs_failed += 1
        worker.failure_streak += 1
        self._records[worker.worker_id]["failure_streak"] = worker.failure_streak
        logger.warning(
            "%s %s failed on %s (streak %d): %s",
            job.job_id,
            job.name,
            worker.worker_id,
            worker.failure_streak,
            msg.error.splitlines()[0],
        )
        # deterministic flow failures surface exactly like the local
        # pool's — no retry — but they count against the worker
        self._resolve(job, Outcome(error=msg.error, runtime_s=msg.runtime_s))
        if (
            worker.failure_streak >= self.quarantine_after
            and worker.state != "quarantined"
        ):
            await self._quarantine(
                worker,
                f"{worker.failure_streak} consecutive job failures",
            )

    async def _quarantine(self, worker: WorkerHandle, reason: str) -> None:
        worker.state = "quarantined"
        self._records[worker.worker_id]["quarantined"] = True
        logger.warning("worker %s quarantined: %s", worker.worker_id, reason)
        await self._send(
            worker, Quarantine(worker_id=worker.worker_id, reason=reason)
        )

    async def _worker_requeue(self, worker: WorkerHandle, msg: Requeue) -> None:
        """A worker handing an unstarted assignment back (draining or
        quarantined): no retry penalty, straight back to the front of
        the queue."""
        job = worker.inflight.pop(msg.job_id, None)
        worker.refresh_state()
        if job is None or job.finished:
            return
        logger.info(
            "%s handed back by %s (%s); requeueing",
            job.job_id,
            worker.worker_id,
            msg.reason or "no reason",
        )
        job.state = "pending"
        job.assigned_to = None
        self._pending.appendleft(job.job_id)
        await self._dispatch()

    async def _goodbye(self, worker: WorkerHandle, msg: Goodbye) -> None:
        logger.info(
            "worker %s said goodbye (%s)", worker.worker_id, msg.reason or "done"
        )
        await self._requeue_inflight(worker, "worker left gracefully mid-job")
        worker.state = "dead"
        worker.open_leases = 0

    # ------------------------------------------------------------------
    # supervision

    async def _monitor_heartbeats(self) -> None:
        """Declare dead any worker silent past ``miss_limit`` beats."""
        while True:
            await asyncio.sleep(self.heartbeat_interval_s)
            deadline = self.heartbeat_interval_s * self.miss_limit
            now = time.monotonic()
            for worker in list(self.workers.values()):
                if worker.state == "dead":
                    continue
                if now - worker.last_seen > deadline:
                    await self._worker_lost(
                        worker,
                        f"missed {self.miss_limit} heartbeats "
                        f"({now - worker.last_seen:.1f}s silent)",
                    )
                    try:
                        worker.writer.close()
                    except Exception:  # noqa: BLE001 — half-dead transport
                        pass

    async def _worker_lost(self, worker: WorkerHandle, reason: str) -> None:
        if worker.state == "dead":
            return
        logger.warning("worker %s lost: %s", worker.worker_id, reason)
        worker.state = "dead"
        worker.open_leases = 0
        await self._requeue_inflight(worker, reason)

    async def _requeue_inflight(self, worker: WorkerHandle, reason: str) -> None:
        jobs = list(worker.inflight.values())
        worker.inflight.clear()
        for job in jobs:
            if job.finished:
                continue
            job.attempts += 1
            if job.attempts > self.max_requeues:
                self._resolve(
                    job,
                    Outcome(
                        error=f"job lost with worker {worker.worker_id} ({reason}); "
                        f"gave up after {job.attempts} attempt(s) "
                        f"(max_requeues={self.max_requeues})"
                    ),
                )
            else:
                logger.info(
                    "%s requeued (attempt %d/%d): %s",
                    job.job_id,
                    job.attempts,
                    self.max_requeues,
                    reason,
                )
                job.state = "pending"
                job.assigned_to = None
                self._pending.appendleft(job.job_id)
        await self._dispatch()

    # ------------------------------------------------------------------
    # dispatch

    def _pick_worker(
        self, fingerprint: Optional[str]
    ) -> Tuple[Optional[WorkerHandle], bool]:
        """(worker, was_affinity_hit): warm worker preferred, then
        least-loaded, registration order as the deterministic tie-break."""
        candidates = [
            w for w in self.workers.values() if w.live and w.open_leases > 0
        ]
        if not candidates:
            return None, False
        if fingerprint:
            warm = [w for w in candidates if fingerprint in w.warm]
            if warm:
                return min(warm, key=lambda w: (len(w.inflight), w.seq)), True
        return min(candidates, key=lambda w: (len(w.inflight), w.seq)), False

    async def _dispatch(self) -> None:
        """Match pending jobs to open leases until one side runs dry."""
        while self._pending:
            job = self.jobs[self._pending[0]]
            worker, hit = self._pick_worker(job.fingerprint)
            if worker is None:
                return
            self._pending.popleft()
            if job.fingerprint:
                if hit:
                    self.affinity_hits += 1
                else:
                    self.affinity_misses += 1
            worker.open_leases -= 1
            worker.inflight[job.job_id] = job
            worker.refresh_state()
            job.state = "leased"
            job.assigned_to = worker.worker_id
            logger.info(
                "%s %s assigned to %s (attempt %d%s)",
                job.job_id,
                job.name,
                worker.worker_id,
                job.attempts,
                ", affinity hit" if hit else "",
            )
            sent = await self._send(
                worker,
                JobAssign(
                    job_id=job.job_id,
                    name=job.name,
                    work=job.work,
                    config=job.config.to_dict(),
                    timeout_s=job.timeout_s,
                    fingerprint=job.fingerprint,
                    attempt=job.attempts,
                ),
            )
            if not sent:
                # _send already routed the jobs through _worker_lost,
                # which requeued (or failed) this one — keep matching
                continue

    async def _send(self, worker: WorkerHandle, msg: Message) -> bool:
        """Send one frame to a worker; a dead transport marks it lost.

        The loss cascade (requeue + dispatch, which sends on *other*
        workers' locks) runs after the send lock is released — nesting
        send locks across workers would make dispatch ordering a
        deadlock ingredient.
        """
        async with worker._send_lock:
            try:
                await send_message(worker.writer, msg)
                return True
            except (ConnectionError, OSError) as exc:
                failure = f"send failed ({type(exc).__name__}: {exc})"
        await self._worker_lost(worker, failure)
        return False

    # ------------------------------------------------------------------
    # resolution

    def _resolve(self, job: FleetJob, outcome: Outcome) -> None:
        """First terminal transition wins; later results are discarded."""
        if job.finished:
            return
        job.state = "failed" if outcome.error is not None else "done"
        if job.future is not None and not job.future.done():
            job.future.set_result(outcome)


class FleetBackend:
    """Adapt a :class:`Coordinator` to the service's
    :class:`~repro.serve.service.ExecutionBackend` interface.

    ``slots`` bounds how many service jobs may be in flight toward the
    fleet at once (dispatcher tasks service-side); actual execution
    concurrency is whatever the registered workers lease.  Results
    cross the wire as :func:`repro.report.flow_result_to_dict` records,
    which the coordinator decodes on arrival, so :meth:`execute` returns
    the same :class:`Outcome` the local-pool backend does.
    """

    def __init__(self, coordinator: Coordinator, *, max_inflight: int = 32) -> None:
        if max_inflight < 1:
            raise FleetError(f"max_inflight must be >= 1, got {max_inflight}")
        self.coordinator = coordinator
        self.slots = max_inflight
        self._owns_coordinator = coordinator.state == "new"

    async def start(self) -> None:
        if self.coordinator.state == "new":
            self._owns_coordinator = True
            await self.coordinator.start()

    async def shutdown(self) -> None:
        if self._owns_coordinator:
            await self.coordinator.stop()

    async def abort_pending(self) -> None:
        """Fail jobs no worker has picked up (non-draining shutdown)."""
        coordinator = self.coordinator
        for job_id in list(coordinator._pending):
            job = coordinator.jobs.get(job_id)
            if job is not None and not job.finished:
                coordinator._pending.remove(job_id)
                coordinator._resolve(
                    job,
                    Outcome(error="service aborted before any worker picked this up"),
                )

    async def execute(self, job) -> Outcome:
        kind, payload = job.work
        loop = asyncio.get_running_loop()
        # encoding and fingerprinting build the network: keep them off-loop
        work, fingerprint = await loop.run_in_executor(
            None, lambda: (encode_work(kind, payload), work_fingerprint(kind, payload))
        )
        job_id = await self.coordinator.submit(
            work,
            job.config,
            name=job.name,
            timeout_s=job.timeout_s,
            fingerprint=fingerprint,
        )
        return await self.coordinator.outcome(job_id)

    def stats(self) -> Dict[str, Any]:
        return self.coordinator.stats()

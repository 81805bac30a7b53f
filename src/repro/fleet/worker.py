"""Fleet worker: a pull-based execution process for the coordinator.

A :class:`Worker` dials the coordinator's worker bus, registers (with
the fingerprints its local :class:`~repro.store.artifacts.ArtifactStore`
is already warm for), heartbeats on the contract the
:class:`~repro.fleet.protocol.Registered` ack carries, and opens one
:class:`~repro.fleet.protocol.Lease` per free slot.  Each
:class:`~repro.fleet.protocol.JobAssign` is decoded into a serve
:class:`~repro.serve.service.Job` and runs on the service's own
:class:`~repro.serve.service.LocalPoolBackend` — the same pool, config,
store layering, per-job timeout and error isolation ``repro-domino
serve`` uses — so the asyncio connection (heartbeats included) stays
live while gates are being flipped, and Ctrl-C drains the worker
instead of killing its flows.  The :class:`~repro.core.batch.Outcome`
that comes back becomes the wire frame.

Failure semantics mirror the local pool: a flow error comes back as
:class:`~repro.fleet.protocol.JobFailed` (surfaced, not retried); only
losing the *worker* makes the coordinator requeue.  A drained worker
says :class:`~repro.fleet.protocol.Goodbye` so the coordinator can tell
an orderly exit from a crash.  If the coordinator goes away, the worker
keeps reconnecting with capped backoff — start the two sides in either
order.
"""

from __future__ import annotations

import asyncio
import logging
import os
import socket
import uuid
from typing import Dict, Optional

from repro.core.batch import Outcome
from repro.core.config import FlowConfig
from repro.errors import FleetError, ProtocolError
from repro.fleet.protocol import (
    Goodbye,
    Heartbeat,
    JobAssign,
    JobFailed,
    JobProgress,
    JobResult,
    Lease,
    Quarantine,
    Register,
    Registered,
    Requeue,
    decode_work,
    recv_message,
    send_message,
    work_fingerprint,
)
from repro.report import flow_result_to_dict
from repro.serve import _stop_on_signals
from repro.serve.service import Job, LocalPoolBackend
from repro.store.artifacts import ArtifactStore

logger = logging.getLogger(__name__)

#: Reconnect backoff: start fast, cap well under a heartbeat miss window.
RECONNECT_BACKOFF_S = (0.2, 0.5, 1.0, 2.0, 5.0)


class Worker:
    """One fleet worker process: dial, register, lease, execute, repeat.

    Parameters
    ----------
    host, port:
        The coordinator's worker bus.
    slots:
        Concurrent jobs this worker runs (the size of its
        :class:`~repro.serve.service.LocalPoolBackend`); default
        :func:`repro.core.batch.default_jobs`.
    worker_id:
        Stable identity across reconnects; quarantine follows it.
        Default: ``<hostname>-<pid>-<4 hex>``.
    store:
        Artefact store; its ``flow`` fingerprints are announced as warm
        at registration, feeding the coordinator's affinity map.  With
        a tiered/shared backend (``--shared-store``) that includes
        everything already in the shared tier, so a fresh worker starts
        warm for the whole fleet's history.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        slots: Optional[int] = None,
        worker_id: Optional[str] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        if slots is not None and slots < 1:
            raise FleetError(f"slots must be >= 1, got {slots}")
        self.host = host
        self.port = port
        self._backend = LocalPoolBackend(slots, store)
        self.slots = self._backend.slots
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:4]}"
        )
        self.store = store
        self.quarantined = False
        self.jobs_done = 0
        self.jobs_failed = 0
        self._stop = asyncio.Event()
        self._inflight: Dict[str, asyncio.Task] = {}
        self._send_lock = asyncio.Lock()
        self._writer = None

    # ------------------------------------------------------------------
    # lifecycle

    def drain(self) -> None:
        """Ask the worker to finish in-flight jobs and exit :meth:`run`."""
        self._stop.set()

    async def run(self) -> None:
        """Serve until :meth:`drain`; reconnects across coordinator
        restarts and network blips with capped backoff."""
        await self._backend.start()
        try:
            backoff = 0
            while not self._stop.is_set():
                try:
                    await self._session()
                    backoff = 0
                except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
                    if self._stop.is_set():
                        break
                    delay = RECONNECT_BACKOFF_S[
                        min(backoff, len(RECONNECT_BACKOFF_S) - 1)
                    ]
                    backoff += 1
                    logger.warning(
                        "%s: coordinator unreachable (%s: %s); retrying in %.1fs",
                        self.worker_id,
                        type(exc).__name__,
                        exc,
                        delay,
                    )
                    try:
                        await asyncio.wait_for(self._stop.wait(), timeout=delay)
                    except asyncio.TimeoutError:
                        pass
        finally:
            await self._backend.shutdown()

    # ------------------------------------------------------------------
    # one connection

    async def _session(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        heartbeat_task: Optional[asyncio.Task] = None
        try:
            if self.store is None:
                warm = []
            else:
                # The fingerprint scan globs the store directory tree;
                # keep that disk walk off the event loop.
                loop = asyncio.get_running_loop()
                warm = list(
                    await loop.run_in_executor(
                        None, lambda: list(self.store.fingerprints("flow"))
                    )
                )
            await self._send(
                Register(
                    worker_id=self.worker_id,
                    host=socket.gethostname(),
                    pid=os.getpid(),
                    slots=self.slots,
                    warm_fingerprints=warm,
                )
            )
            ack = await recv_message(reader)
            if not isinstance(ack, Registered):
                raise ProtocolError(
                    f"expected registered ack, got {type(ack).TYPE}"
                )
            logger.info(
                "%s registered with %s:%d (%d slot(s), %d warm, "
                "heartbeat every %.1fs)",
                self.worker_id,
                self.host,
                self.port,
                self.slots,
                len(warm),
                ack.heartbeat_interval_s,
            )
            heartbeat_task = asyncio.create_task(
                self._heartbeat_loop(ack.heartbeat_interval_s),
                name=f"repro-fleet-heartbeat-{self.worker_id}",
            )
            if not self.quarantined:
                await self._send(Lease(worker_id=self.worker_id, slots=self.slots))
            stop_wait = asyncio.create_task(self._stop.wait())
            try:
                while True:
                    recv = asyncio.create_task(recv_message(reader))
                    done, _ = await asyncio.wait(
                        {recv, stop_wait}, return_when=asyncio.FIRST_COMPLETED
                    )
                    if recv in done:
                        await self._handle_message(await recv)
                    else:
                        recv.cancel()
                        try:
                            await recv
                        except (
                            asyncio.CancelledError,
                            asyncio.IncompleteReadError,
                            ConnectionError,
                            OSError,
                        ):
                            pass
                    if self._stop.is_set():
                        await self._goodbye()
                        return
            finally:
                stop_wait.cancel()
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
                try:
                    await heartbeat_task
                except asyncio.CancelledError:
                    pass
            self._writer = None
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _goodbye(self) -> None:
        """Drain: finish in-flight jobs, then an orderly Goodbye."""
        if self._inflight:
            logger.info(
                "%s draining: waiting on %d in-flight job(s)",
                self.worker_id,
                len(self._inflight),
            )
            await asyncio.gather(
                *list(self._inflight.values()), return_exceptions=True
            )
        await self._send(Goodbye(worker_id=self.worker_id, reason="drained"))
        logger.info("%s drained and said goodbye", self.worker_id)

    async def _heartbeat_loop(self, interval_s: float) -> None:
        while True:
            await asyncio.sleep(interval_s)
            await self._send(
                Heartbeat(
                    worker_id=self.worker_id, inflight=list(self._inflight)
                )
            )

    async def _send(self, msg) -> None:
        async with self._send_lock:
            if self._writer is None:
                raise ConnectionError("not connected")
            await send_message(self._writer, msg)

    # ------------------------------------------------------------------
    # message handling

    async def _handle_message(self, msg) -> None:
        if isinstance(msg, JobAssign):
            if self._stop.is_set() or self.quarantined:
                await self._send(
                    Requeue(
                        job_id=msg.job_id,
                        reason="worker draining"
                        if self._stop.is_set()
                        else "worker quarantined",
                    )
                )
                return
            self._inflight[msg.job_id] = asyncio.create_task(
                self._run_job(msg), name=f"repro-fleet-job-{msg.job_id}"
            )
            return
        if isinstance(msg, Quarantine):
            self.quarantined = True
            logger.warning(
                "%s quarantined by coordinator: %s", self.worker_id, msg.reason
            )
            return
        raise ProtocolError(
            f"unexpected {type(msg).TYPE} message from coordinator"
        )

    async def _run_job(self, assign: JobAssign) -> None:
        try:
            await self._send(JobProgress(job_id=assign.job_id, state="running"))
            logger.info(
                "%s running %s (%s, attempt %d)",
                self.worker_id,
                assign.job_id,
                assign.name,
                assign.attempt,
            )
            # decoding here costs about what parsing the frame already did
            try:
                kind, payload = decode_work(assign.work)
                config = FlowConfig.from_dict(assign.config)
            except Exception as exc:  # noqa: BLE001 — report, don't kill the slot
                # the submitter's payload is at fault, not this worker's
                # health — though repeated ones still build the
                # coordinator-side failure streak
                outcome = Outcome.from_exception(exc, "undecodable job: ")
            else:
                job = Job(
                    assign.job_id,
                    assign.name,
                    config,
                    timeout_s=assign.timeout_s,
                    work=(kind, payload),
                )
                try:
                    outcome = await self._backend.execute(job)
                except Exception as exc:  # noqa: BLE001 — pool breakage
                    outcome = Outcome.from_exception(exc, "worker execution error: ")
            if outcome.ok:
                self.jobs_done += 1
                fingerprint = assign.fingerprint
                if fingerprint is None:  # parsing may touch disk: off-loop
                    fingerprint = await asyncio.get_running_loop().run_in_executor(
                        None, work_fingerprint, kind, payload
                    )
                await self._send(
                    JobResult(
                        job_id=assign.job_id,
                        flow=flow_result_to_dict(outcome.result),
                        runtime_s=outcome.runtime_s,
                        cached=outcome.cached,
                        fingerprint=fingerprint,
                    )
                )
            else:
                self.jobs_failed += 1
                await self._send(
                    JobFailed(
                        job_id=assign.job_id,
                        error=outcome.error or "unknown failure",
                        runtime_s=outcome.runtime_s,
                    )
                )
        except (ConnectionError, OSError):
            # connection died mid-report: the coordinator's supervision
            # requeues this job; nothing useful to do here
            logger.warning(
                "%s lost the coordinator while reporting %s",
                self.worker_id,
                assign.job_id,
            )
        finally:
            self._inflight.pop(assign.job_id, None)
            if not self._stop.is_set() and not self.quarantined:
                try:
                    # replace the consumed lease: stay at `slots` open
                    await self._send(Lease(worker_id=self.worker_id, slots=1))
                except (ConnectionError, OSError):
                    pass


async def run_worker_forever(worker: Worker) -> None:
    """Run one worker under SIGINT/SIGTERM → graceful drain (the
    ``repro-domino fleet worker`` entry point)."""
    with _stop_on_signals(worker.drain):
        await worker.run()

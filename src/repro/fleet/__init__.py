"""Distributed serving: a coordinator + worker fleet for the flow.

One coordinator owns the job queue; any number of worker processes
(same host or, with a shared filesystem for BLIF-path jobs, other
hosts) dial in, register, and *pull* work via leases.  The
``repro-domino fleet coordinator`` command serves the exact HTTP
surface of ``repro-domino serve`` — submit, status, events, cancel,
healthz — with the fleet doing the synthesis and byte-identical
results; ``repro-domino fleet worker`` starts a worker.

Supervision (see :mod:`repro.fleet.coordinator`): a dead worker's
in-flight jobs are requeued with a bounded retry budget; a worker whose
jobs keep failing is quarantined; repeat traffic for the same network
fingerprint is affinity-routed to the worker whose artefact store is
already warm for it.

Wire protocol (:mod:`repro.fleet.protocol`) — versioned JSON frames,
4-byte big-endian length prefix, one validated dataclass per message:

================  ===================  =====================================
message           direction            meaning
================  ===================  =====================================
``register``      worker → coord       hello: identity, slots, warm
                                       store fingerprints
``registered``    coord → worker       ack + heartbeat contract
                                       (interval, miss limit)
``heartbeat``     worker → coord       liveness + in-flight job ids
``lease``         worker → coord       open N work requests (pull
                                       scheduling)
``job_assign``    coord → worker       one leased job: work payload,
                                       config, timeout, attempt number
``job_progress``  worker → coord       the job started running
``job_result``    worker → coord       finished flow record (+ the now-
                                       warm fingerprint)
``job_failed``    worker → coord       the flow failed (surfaced, not
                                       retried; feeds quarantine streak)
``requeue``       worker → coord       hand an unstarted job back, no
                                       retry penalty (drain, quarantine)
``quarantine``    coord → worker       out of rotation after repeated
                                       failures
``goodbye``       worker → coord       orderly disconnect (drained)
================  ===================  =====================================
"""

from repro.fleet.coordinator import (
    Coordinator,
    DEFAULT_FLEET_PORT,
    FLEET_JOB_STATES,
    FleetBackend,
    FleetJob,
    WORKER_STATES,
    WorkerHandle,
)
from repro.fleet.protocol import (
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
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
    decode_message,
    decode_work,
    encode_message,
    encode_work,
    recv_message,
    send_message,
)
from repro.fleet.worker import Worker, run_worker_forever

__all__ = [
    "Coordinator",
    "DEFAULT_FLEET_PORT",
    "FLEET_JOB_STATES",
    "FleetBackend",
    "FleetJob",
    "WORKER_STATES",
    "WorkerHandle",
    "MESSAGE_TYPES",
    "PROTOCOL_VERSION",
    "Message",
    "Register",
    "Registered",
    "Heartbeat",
    "Lease",
    "JobAssign",
    "JobProgress",
    "JobResult",
    "JobFailed",
    "Requeue",
    "Quarantine",
    "Goodbye",
    "encode_message",
    "decode_message",
    "send_message",
    "recv_message",
    "encode_work",
    "decode_work",
    "Worker",
    "run_worker_forever",
]

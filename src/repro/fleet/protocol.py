"""Typed wire protocol for the fleet: one validated class per message.

Every message that crosses the coordinator↔worker TCP link is a small
frozen dataclass with strict field validation — in the style of
gridworks' ``named_types`` package, where each wire type is its own
validated class rather than an ad-hoc dict.  Frames are JSON objects
with a protocol version and a type tag, length-prefixed on the stream::

    ┌────────────┬──────────────────────────────────────────────┐
    │ 4 bytes    │ UTF-8 JSON                                   │
    │ big-endian │ {"v": 1, "type": "register", ...fields}      │
    │ length     │                                              │
    └────────────┴──────────────────────────────────────────────┘

:func:`send_message` / :func:`recv_message` do the framing over
``asyncio`` streams; :func:`encode_message` / :func:`decode_message`
are the pure frame codecs (what the tests exercise without sockets).
Anything malformed — unknown type, missing/unknown/ill-typed field,
wrong protocol version, oversized frame — raises
:class:`repro.errors.ProtocolError` with the offender named, never a
bare ``KeyError``/``TypeError``: a coordinator must survive any bytes a
worker (or a port scanner) throws at it.

Work payloads (the circuit a job runs on) cross the wire through
:func:`encode_work` / :func:`decode_work`, reusing the repo's existing
JSON codecs: networks via :func:`repro.store.serialize.network_to_dict`,
benchmark specs field-by-field, BLIF paths verbatim (workers on another
host need a shared filesystem for path submissions — inline ``blif``
text and ``spec`` submissions are location-independent).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type

from repro.errors import ProtocolError

#: Version tag carried by every frame; a mismatch is a hard error so a
#: mixed-version fleet fails loudly at registration, not mid-job.
PROTOCOL_VERSION = 1

#: Frame size cap — generous (a serialized industry-size network is a
#: few MiB) while bounding what one connection can make us buffer.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Registry of message types by wire tag (filled by :func:`_message`).
MESSAGE_TYPES: Dict[str, Type["Message"]] = {}


def _message(cls):
    """Class decorator: register a message dataclass by its ``TYPE``."""
    MESSAGE_TYPES[cls.TYPE] = cls
    return cls


def _is_str_list(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(v, str) for v in value
    )


#: Field validators: name -> (predicate, human-readable expectation).
_CHECKS = {
    "str": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "any_str": (lambda v: isinstance(v, str), "a string"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "a number",
    ),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "opt_str": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "opt_float": (
        lambda v: v is None
        or (isinstance(v, (int, float)) and not isinstance(v, bool)),
        "a number or null",
    ),
    "opt_dict": (lambda v: v is None or isinstance(v, dict), "an object or null"),
    "str_list": (_is_str_list, "a list of strings"),
}


@dataclass(frozen=True)
class Message:
    """Base class: schema-validated construction + frame round-trip."""

    #: wire tag; every concrete message overrides it
    TYPE: ClassVar[str] = ""
    #: field name -> key in :data:`_CHECKS`
    SCHEMA: ClassVar[Dict[str, str]] = {}

    def __post_init__(self) -> None:
        for name, check in type(self).SCHEMA.items():
            predicate, expected = _CHECKS[check]
            value = getattr(self, name)
            if not predicate(value):
                raise ProtocolError(
                    f"{type(self).TYPE}.{name} must be {expected}, "
                    f"got {value!r}"
                )

    def to_frame(self) -> Dict[str, Any]:
        frame: Dict[str, Any] = {"v": PROTOCOL_VERSION, "type": type(self).TYPE}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            frame[f.name] = value
        return frame


@_message
@dataclass(frozen=True)
class Register(Message):
    """Worker → coordinator, first frame on a fresh connection.

    ``warm_fingerprints`` announces the network fingerprints the
    worker's local store already holds a full flow artefact for — the
    seed of the coordinator's affinity map.
    """

    TYPE = "register"
    SCHEMA = {
        "worker_id": "str",
        "host": "str",
        "pid": "int",
        "slots": "int",
        "warm_fingerprints": "str_list",
    }

    worker_id: str
    host: str
    pid: int
    slots: int
    warm_fingerprints: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slots < 1:
            raise ProtocolError(f"register.slots must be >= 1, got {self.slots}")


@_message
@dataclass(frozen=True)
class Registered(Message):
    """Coordinator → worker, the registration ack: carries the
    heartbeat contract the worker must honour."""

    TYPE = "registered"
    SCHEMA = {
        "worker_id": "str",
        "heartbeat_interval_s": "float",
        "miss_limit": "int",
    }

    worker_id: str
    heartbeat_interval_s: float
    miss_limit: int


@_message
@dataclass(frozen=True)
class Heartbeat(Message):
    """Worker → coordinator, every ``heartbeat_interval_s``; missing
    ``miss_limit`` consecutive beats gets the worker declared dead and
    its in-flight jobs requeued."""

    TYPE = "heartbeat"
    SCHEMA = {"worker_id": "str", "inflight": "str_list"}

    worker_id: str
    inflight: List[str] = field(default_factory=list)


@_message
@dataclass(frozen=True)
class Lease(Message):
    """Worker → coordinator: open ``slots`` work requests (pull-based
    scheduling — the coordinator never pushes past a worker's leases)."""

    TYPE = "lease"
    SCHEMA = {"worker_id": "str", "slots": "int"}

    worker_id: str
    slots: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slots < 1:
            raise ProtocolError(f"lease.slots must be >= 1, got {self.slots}")


@_message
@dataclass(frozen=True)
class JobAssign(Message):
    """Coordinator → worker: one leased job.  ``work`` is an
    :func:`encode_work` payload, ``config`` a ``FlowConfig.to_dict``
    record, ``attempt`` the number of times the job was already lost
    with a dead worker and requeued."""

    TYPE = "job_assign"
    SCHEMA = {
        "job_id": "str",
        "name": "str",
        "work": "dict",
        "config": "dict",
        "timeout_s": "opt_float",
        "fingerprint": "opt_str",
        "attempt": "int",
    }

    job_id: str
    name: str
    work: Dict[str, Any]
    config: Dict[str, Any]
    timeout_s: Optional[float] = None
    fingerprint: Optional[str] = None
    attempt: int = 0


@_message
@dataclass(frozen=True)
class JobProgress(Message):
    """Worker → coordinator: the job changed state worker-side
    (currently the single ``running`` transition)."""

    TYPE = "job_progress"
    SCHEMA = {"job_id": "str", "state": "str"}

    job_id: str
    state: str


@_message
@dataclass(frozen=True)
class JobResult(Message):
    """Worker → coordinator: the job finished; ``flow`` is the
    :func:`repro.report.flow_result_to_dict` record, ``fingerprint``
    the network fingerprint now warm in this worker's store."""

    TYPE = "job_result"
    SCHEMA = {
        "job_id": "str",
        "flow": "dict",
        "runtime_s": "float",
        "cached": "bool",
        "fingerprint": "opt_str",
    }

    job_id: str
    flow: Dict[str, Any]
    runtime_s: float
    cached: bool = False
    fingerprint: Optional[str] = None


@_message
@dataclass(frozen=True)
class JobFailed(Message):
    """Worker → coordinator: the flow itself failed (parse error, flow
    bug, per-job timeout).  Deterministic failures are surfaced, not
    retried — exactly the local-pool semantics — but they do count
    toward the worker's quarantine streak."""

    TYPE = "job_failed"
    SCHEMA = {"job_id": "str", "error": "str", "runtime_s": "float"}

    job_id: str
    error: str
    runtime_s: float = 0.0


@_message
@dataclass(frozen=True)
class Requeue(Message):
    """Worker → coordinator: hand an assigned-but-unstarted job back
    (worker draining or quarantined) — the job returns to the queue
    with no retry penalty."""

    TYPE = "requeue"
    SCHEMA = {"job_id": "str", "reason": "any_str"}

    job_id: str
    reason: str = ""


@_message
@dataclass(frozen=True)
class Quarantine(Message):
    """Coordinator → worker: the worker is out of the rotation after
    repeated failures; in-flight jobs may finish but no new leases will
    be served."""

    TYPE = "quarantine"
    SCHEMA = {"worker_id": "str", "reason": "any_str"}

    worker_id: str
    reason: str = ""


@_message
@dataclass(frozen=True)
class Goodbye(Message):
    """Worker → coordinator: graceful disconnect (drained, nothing in
    flight); distinguishes an orderly exit from a crash."""

    TYPE = "goodbye"
    SCHEMA = {"worker_id": "str", "reason": "any_str"}

    worker_id: str
    reason: str = ""


# ----------------------------------------------------------------------
# frame codecs


def encode_message(msg: Message) -> bytes:
    """One message as its framed JSON body (length prefix excluded)."""
    if not isinstance(msg, Message):
        raise ProtocolError(
            f"cannot encode {type(msg).__name__}: not a fleet message"
        )
    return json.dumps(msg.to_frame(), separators=(",", ":")).encode("utf-8")


def decode_message(data: bytes) -> Message:
    """Parse and validate one frame body into its typed message."""
    try:
        frame = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object")
    version = frame.pop("v", None)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    tag = frame.pop("type", None)
    cls = MESSAGE_TYPES.get(tag)
    if cls is None:
        raise ProtocolError(f"unknown message type {tag!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(frame) - known
    if unknown:
        raise ProtocolError(
            f"{tag} frame carries unknown field(s) {sorted(unknown)!r}"
        )
    try:
        return cls(**frame)
    except TypeError as exc:
        raise ProtocolError(f"bad {tag} frame: {exc}") from None


async def send_message(writer, msg: Message) -> None:
    """Write one length-prefixed frame and drain."""
    body = encode_message(msg)
    writer.write(len(body).to_bytes(4, "big") + body)
    await writer.drain()


async def recv_message(reader) -> Message:
    """Read one length-prefixed frame; raises
    ``asyncio.IncompleteReadError`` on a clean EOF (the caller's
    disconnect signal) and :class:`ProtocolError` on garbage."""
    header = await reader.readexactly(4)
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return decode_message(await reader.readexactly(length))


# ----------------------------------------------------------------------
# work payload codecs


def encode_work(kind: str, payload) -> Dict[str, Any]:
    """JSON-safe wire form of one :func:`repro.core.batch._describe`
    work description."""
    if kind == "network":
        from repro.store.serialize import network_to_dict

        return {"kind": "network", "network": network_to_dict(payload)}
    if kind == "spec":
        record = dataclasses.asdict(payload)
        return {"kind": "spec", "spec": record}
    if kind == "blif":
        return {"kind": "blif", "path": str(payload)}
    raise ProtocolError(f"cannot encode work of kind {kind!r}")


def work_fingerprint(kind: str, payload) -> Optional[str]:
    """Network fingerprint of one work description — the affinity
    routing key — or ``None`` when the circuit cannot be built here:
    affinity is best-effort, and the worker surfaces the real error."""
    try:
        from repro.core.batch import materialize

        return materialize(kind, payload).fingerprint()
    except Exception:  # noqa: BLE001 — affinity is best-effort
        return None


def decode_work(work: Dict[str, Any]) -> Tuple[str, Any]:
    """Inverse of :func:`encode_work`: ``(kind, payload)`` ready for
    :func:`repro.core.batch.execute_one`."""
    if not isinstance(work, dict):
        raise ProtocolError("work payload must be an object")
    kind = work.get("kind")
    try:
        if kind == "network":
            from repro.store.serialize import network_from_dict

            return ("network", network_from_dict(work["network"]))
        if kind == "spec":
            from repro.bench.mcnc import BenchmarkSpec, PaperRow

            record = dict(work["spec"])
            for table in ("table1", "table2"):
                row = record.get(table)
                if row is not None:
                    record[table] = PaperRow(**row)
            return ("spec", BenchmarkSpec(**record))
        if kind == "blif":
            return ("blif", str(work["path"]))
    except ProtocolError:
        raise
    except Exception as exc:  # noqa: BLE001 — name the offender, always
        raise ProtocolError(
            f"malformed {kind!r} work payload: {type(exc).__name__}: {exc}"
        ) from None
    raise ProtocolError(f"cannot decode work of kind {kind!r}")

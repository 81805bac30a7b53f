"""The :class:`StoreBackend` interface: content-addressed blob storage.

A backend stores *entries* — the JSON-safe envelope dicts
:class:`repro.store.ArtifactStore` builds (``version``/``kind``/
``fingerprint``/``key``/``created_at``/``payload``) — addressed by the
triple ``(kind, fingerprint, digest)``:

* ``kind`` — one of :data:`repro.store.ARTIFACT_KINDS`,
* ``fingerprint`` — the network's structural fingerprint,
* ``digest`` — :func:`repro.store.serialize.key_digest` of the config
  key tuple.

Every implementation owes its callers two contracts:

**Atomic writes.**  :meth:`StoreBackend.put` either lands the complete
entry or changes nothing — a reader racing a writer (across threads
*and* processes) must only ever observe the previous complete entry, a
miss, or the new complete entry, never a torn one.  The disk backend
stages through the ``tmp_sibling`` temp-path helper + ``os.replace``;
the SQLite backend rides a single-statement upsert inside WAL
journaling.

**Corrupt entries degrade to misses.**  :meth:`StoreBackend.get` of an
entry that cannot be decoded (interrupted write on a dying host,
hand-edited file, mangled row) deletes it and returns ``None`` — the
flow recomputes and overwrites; nothing ever crashes on a bad cache.

Backends additionally keep per-kind hit/miss/eviction counters
(process-local, lock-guarded — see :meth:`StoreBackend.counters`) and
support LRU-by-last-hit eviction under a byte cap (``max_bytes``):
every hit refreshes the entry's last-hit stamp and
:meth:`StoreBackend.put` evicts the least-recently-hit entries until
the store fits.  Backends must also pickle across process-pool
boundaries (``run_many`` workers, the serve pool, fleet workers), so
implementations carry only their configuration through ``__reduce__``
and re-open handles lazily on the far side.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

#: Entry envelope schema version; bump to invalidate every old entry.
STORE_VERSION = 1


def validate_entry(entry: Any, kind: str) -> Dict[str, Any]:
    """The entry, if it is a well-formed envelope of ``kind``.

    Raises ``ValueError`` otherwise — backends translate that into the
    delete-and-miss path the corruption contract requires.
    """
    if not isinstance(entry, dict):
        raise ValueError("store entry is not a mapping")
    if entry.get("version") != STORE_VERSION or entry.get("kind") != kind:
        raise ValueError("store entry version/kind mismatch")
    if not isinstance(entry.get("payload"), dict):
        raise ValueError("store entry payload is not a mapping")
    return entry


@dataclass(frozen=True)
class BlobKey:
    """Address of one stored entry."""

    kind: str
    fingerprint: str
    digest: str


@dataclass(frozen=True)
class BlobStat:
    """Metadata of one stored entry (:meth:`StoreBackend.stat`)."""

    size: int           #: stored size in bytes
    created_at: float   #: wall-clock stamp from the entry envelope
    last_hit: float     #: wall-clock stamp of the most recent get() hit


class GCReport(int):
    """Result of :meth:`StoreBackend.gc`: an ``int`` (the number of
    entries removed — or, under ``dry_run``, that *would* be removed)
    carrying the per-entry detail.

    Subclassing ``int`` keeps every historical ``store.gc() == n``
    call site working while ``cache gc --dry-run`` gets the receipts.
    """

    entries: Tuple[Dict[str, Any], ...]
    dry_run: bool

    def __new__(cls, entries=(), dry_run: bool = False) -> "GCReport":
        report = super().__new__(cls, len(entries))
        report.entries = tuple(entries)
        report.dry_run = dry_run
        return report

    def __reduce__(self):
        return (GCReport, (self.entries, self.dry_run))


def gc_entry(
    key: BlobKey, reason: str, size: int = 0
) -> Dict[str, Any]:
    """One JSON-safe line of a :class:`GCReport`."""
    return {
        "kind": key.kind,
        "fingerprint": key.fingerprint,
        "digest": key.digest,
        "reason": reason,
        "bytes": int(size),
    }


class StoreBackend(ABC):
    """Where content-addressed store entries physically live.

    Subclasses implement :meth:`get` / :meth:`put` / :meth:`stat` /
    :meth:`delete` / :meth:`iter_keys` / :meth:`gc` under the atomicity
    and corruption contracts in the module docstring, and call
    :meth:`_count_hit` / :meth:`_count_miss` / :meth:`_count_eviction`,
    the only counters the façade's statistics read.
    """

    #: Short display name (``local-disk`` / ``sqlite`` / ``tiered``).
    name: str = "backend"

    def __init__(self) -> None:
        self._counter_lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._evictions: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # the blob contract

    @abstractmethod
    def get(self, kind: str, fingerprint: str, digest: str) -> Optional[Dict[str, Any]]:
        """The decoded entry envelope, or ``None`` on a miss.  An entry
        that fails to decode is deleted and reported as a miss."""

    @abstractmethod
    def put(self, kind: str, fingerprint: str, digest: str, entry: Dict[str, Any]) -> Path:
        """Atomically persist one entry (last writer wins); returns the
        path that backs it (the DB file for row-oriented backends)."""

    @abstractmethod
    def stat(self, kind: str, fingerprint: str, digest: str) -> Optional[BlobStat]:
        """Size and timestamps of one entry without decoding it, or
        ``None`` when absent."""

    @abstractmethod
    def delete(self, kind: str, fingerprint: str, digest: str) -> bool:
        """Remove one entry; ``True`` iff something was removed."""

    @abstractmethod
    def iter_keys(self, kind: Optional[str] = None) -> Iterator[BlobKey]:
        """Every stored key (optionally one kind), in sorted order so
        concurrent observers and tests see a deterministic listing."""

    @abstractmethod
    def gc(
        self, max_age_days: Optional[float] = None, *, dry_run: bool = False
    ) -> GCReport:
        """Drop undecodable entries, stray write debris, and entries
        older than ``max_age_days``; with ``dry_run`` report what would
        go without deleting anything."""

    # ------------------------------------------------------------------
    # shared conveniences

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in list(self.iter_keys()):
            if self.delete(key.kind, key.fingerprint, key.digest):
                removed += 1
        return removed

    def close(self) -> None:
        """Release handles; the backend may be reused (handles reopen)."""

    @property
    @abstractmethod
    def root(self) -> Path:
        """The filesystem location that identifies this backend — the
        store directory, the DB file, or the local tier's root."""

    # ------------------------------------------------------------------
    # statistics

    def _count_hit(self, kind: str) -> None:
        with self._counter_lock:
            self._hits[kind] = self._hits.get(kind, 0) + 1

    def _count_miss(self, kind: str) -> None:
        with self._counter_lock:
            self._misses[kind] = self._misses.get(kind, 0) + 1

    def _count_eviction(self, kind: str) -> None:
        with self._counter_lock:
            self._evictions[kind] = self._evictions.get(kind, 0) + 1

    def counters(self) -> Dict[str, Dict[str, int]]:
        """This process's per-kind hit/miss/eviction counters."""
        with self._counter_lock:
            return {
                "hits": dict(self._hits),
                "misses": dict(self._misses),
                "evictions": dict(self._evictions),
            }

    def usage(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(entries per kind, bytes per kind)`` from a live scan."""
        entries: Dict[str, int] = {}
        sizes: Dict[str, int] = {}
        for key in self.iter_keys():
            entries[key.kind] = entries.get(key.kind, 0) + 1
            stat = self.stat(key.kind, key.fingerprint, key.digest)
            if stat is not None:
                sizes[key.kind] = sizes.get(key.kind, 0) + stat.size
        return entries, sizes

    def stats(self) -> Dict[str, Any]:
        """JSON-safe health record (surfaced in ``cache stats`` and the
        serve/fleet ``/healthz`` payloads)."""
        entries, sizes = self.usage()
        record: Dict[str, Any] = {
            "backend": self.name,
            "root": str(self.root),
            "entries": entries,
            "bytes": sizes,
        }
        record.update(self.counters())
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({str(self.root)!r})"

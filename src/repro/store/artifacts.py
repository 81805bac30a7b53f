"""Content-addressed artefact cache, a façade over a storage backend.

An :class:`ArtifactStore` persists the expensive intermediate products
of the synthesis flow, keyed by

* the **structural fingerprint** of the source network
  (:meth:`repro.network.netlist.LogicNetwork.fingerprint` — stable
  across processes and object identity), and
* a **config key** — the tuple of :class:`repro.core.config.FlowConfig`
  knobs that shape that particular artefact (hashed via
  :func:`repro.store.serialize.key_digest`).

*Where* entries physically live is the backend's business
(:mod:`repro.store.backends`): the default
:class:`~repro.store.backends.LocalDiskBackend` keeps the historical
one-JSON-file-per-entry layout under
``root/<kind>/<fp[:2]>/<fp>-<keydigest>.json``; the SQLite and tiered
backends put a shared cache tier behind the same five calls.  Every
backend honours the same two contracts — atomic writes (a reader never
observes a half-written entry) and corrupt-entries-degrade-to-misses
(a bad entry is deleted and recomputed, never crashes the run).

The store is deliberately dumb about payloads — it moves JSON dicts.
What goes *into* those dicts (networks, probability vectors, optimizer
assignments, :class:`FlowResult` records) is decided by the pipeline
(:mod:`repro.core.pipeline`) using the codecs in
:mod:`repro.store.serialize`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.store.backends import (
    GCReport,
    LocalDiskBackend,
    STORE_VERSION,
    StoreBackend,
    default_store_dir,
    tmp_sibling,
)
from repro.store.serialize import key_digest

__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactStore",
    "GCReport",
    "STORE_VERSION",
    "StoreStats",
    "default_store_dir",
    "tmp_sibling",
]

#: Artefact kinds the pipeline persists, in flow order.
ARTIFACT_KINDS: Tuple[str, ...] = (
    "prepare",      # prepared AOI network (network_to_dict)
    "probs",        # per-input signal probabilities after the latch fixed point
    "assign_ma",    # minimum-area assignment (AreaResult record)
    "assign_mp",    # minimum-power assignment (OptimizationResult record)
    "flow",         # full FlowResult record (flow_result_to_dict)
)


@dataclass
class StoreStats:
    """Usage summary plus this process's hit/miss counters, read from
    the backend record.

    ``entries``/``bytes``/``hits``/``misses``/``evictions`` are keyed
    by artefact kind; ``backend`` carries the per-backend breakdown
    (nested per-tier for the tiered backend) for ``cache stats`` and
    the ``/healthz`` payloads.
    """

    entries: Dict[str, int] = field(default_factory=dict)
    bytes: Dict[str, int] = field(default_factory=dict)
    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    evictions: Dict[str, int] = field(default_factory=dict)
    backend: Optional[Dict[str, Any]] = None

    @property
    def total_entries(self) -> int:
        return sum(self.entries.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())


class ArtifactStore:
    """Persistent cache of flow artefacts, keyed by (fingerprint, config key)."""

    def __init__(
        self,
        root: Optional[str] = None,
        backend: Optional[StoreBackend] = None,
        *,
        max_bytes: Optional[int] = None,
    ) -> None:
        if backend is None:
            backend = LocalDiskBackend(root, max_bytes=max_bytes)
        self.backend = backend

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"

    # Stores cross process-pool boundaries as plain state: the backend
    # carries its own configuration, and its counters are per-process
    # diagnostics that restart at zero in each worker.
    def __reduce__(self):
        return (ArtifactStore, (None, self.backend))

    @property
    def root(self) -> Path:
        """The filesystem location identifying the (primary) backend."""
        return Path(self.backend.root)

    # ------------------------------------------------------------------
    # get / put

    def get(self, kind: str, fingerprint: str, key: Any) -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` on a miss.

        A corrupted or truncated entry (interrupted write, stale format
        version, hand-edited file) is deleted by the backend and
        reported as a miss — the flow recomputes and overwrites it.
        """
        entry = self.backend.get(kind, fingerprint, key_digest(key))
        return None if entry is None else entry["payload"]

    def put(self, kind: str, fingerprint: str, key: Any, payload: Dict[str, Any]) -> Path:
        """Atomically persist one payload; last writer wins."""
        entry = {
            "version": STORE_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "key": repr(key),
            "created_at": time.time(),
            "payload": payload,
        }
        return self.backend.put(kind, fingerprint, key_digest(key), entry)

    def has(self, kind: str, fingerprint: str, key: Any) -> bool:
        return self.backend.stat(kind, fingerprint, key_digest(key)) is not None

    def fingerprints(self, kind: str = "flow") -> Tuple[str, ...]:
        """Distinct network fingerprints with at least one ``kind``
        entry, sorted.  This is what a fleet worker announces as *warm*
        at registration (:mod:`repro.fleet`): any config keyed under a
        listed fingerprint can at minimum reuse the expensive
        per-network artefacts already in this store — for the tiered
        backend that includes everything the shared tier holds."""
        found = {blob.fingerprint for blob in self.backend.iter_keys(kind)}
        return tuple(sorted(found))

    # ------------------------------------------------------------------
    # maintenance (the CLI's `cache stats/clear/gc`)

    def stats(self) -> StoreStats:
        # one walk of the store: the backend record carries the usage
        # and the counters its get() keeps
        record = self.backend.stats()
        return StoreStats(
            entries=record["entries"],
            bytes=record["bytes"],
            hits=record["hits"],
            misses=record["misses"],
            evictions=record["evictions"],
            backend=record,
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        return self.backend.clear()

    def gc(
        self, max_age_days: Optional[float] = None, *, dry_run: bool = False
    ) -> GCReport:
        """Drop unreadable entries, stray temp files, and (optionally)
        entries older than ``max_age_days``.  The result compares equal
        to the number of entries removed — or, under ``dry_run``, the
        number that *would* be removed, with nothing deleted."""
        return self.backend.gc(max_age_days, dry_run=dry_run)

    def close(self) -> None:
        self.backend.close()

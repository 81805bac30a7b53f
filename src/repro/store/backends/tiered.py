"""Tiered backend: local-first read-through, write-through to a shared tier.

The read path costs what the local tier costs: a local hit never
touches the shared tier, a local miss falls through to the shared tier
and — on a hit there — *promotes* the entry into the local tier so the
next read is local too.  The write path is write-through: a put lands
in the local tier, then in the shared tier, before it returns, so fleet
workers, pool workers and CI runners feed a common warm cache with
nothing left queued when their process exits.  A failed shared write
is swallowed (the local tier already has the entry; the shared tier is
an optimisation) but counted, and surfaces in
:meth:`TieredBackend.stats` as ``write_back_errors``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from repro.store.backends.base import (
    BlobKey,
    BlobStat,
    GCReport,
    StoreBackend,
)


class TieredBackend(StoreBackend):
    """Local tier in front of a shared tier (read-through/write-through)."""

    name = "tiered"

    def __init__(self, local: StoreBackend, shared: StoreBackend) -> None:
        super().__init__()
        self.local = local
        self.shared = shared
        self._write_back_errors = 0

    # the tiers carry their own configuration; the counters restart at
    # zero on the far side of a process-pool boundary
    def __reduce__(self):
        return (TieredBackend, (self.local, self.shared))

    @property
    def root(self) -> Path:
        return self.local.root

    def close(self) -> None:
        self.local.close()
        self.shared.close()

    # ------------------------------------------------------------------
    # the blob contract

    def get(self, kind: str, fingerprint: str, digest: str) -> Optional[Dict[str, Any]]:
        entry = self.local.get(kind, fingerprint, digest)
        if entry is not None:
            self._count_hit(kind)
            return entry
        entry = self.shared.get(kind, fingerprint, digest)
        if entry is not None:
            # promote: the next read of this entry should be local
            self.local.put(kind, fingerprint, digest, entry)
            self._count_hit(kind)
            return entry
        self._count_miss(kind)
        return None

    def put(self, kind: str, fingerprint: str, digest: str, entry: Dict[str, Any]) -> Path:
        path = self.local.put(kind, fingerprint, digest, entry)
        try:
            self.shared.put(kind, fingerprint, digest, entry)
        except Exception:
            with self._counter_lock:
                self._write_back_errors += 1
        return path

    def stat(self, kind: str, fingerprint: str, digest: str) -> Optional[BlobStat]:
        return self.local.stat(kind, fingerprint, digest) or self.shared.stat(
            kind, fingerprint, digest
        )

    def delete(self, kind: str, fingerprint: str, digest: str) -> bool:
        removed_local = self.local.delete(kind, fingerprint, digest)
        removed_shared = self.shared.delete(kind, fingerprint, digest)
        return removed_local or removed_shared

    def iter_keys(self, kind: Optional[str] = None) -> Iterator[BlobKey]:
        seen = set(self.local.iter_keys(kind))
        seen.update(self.shared.iter_keys(kind))
        for key in sorted(seen, key=lambda k: (k.kind, k.fingerprint, k.digest)):
            yield key

    def gc(
        self, max_age_days: Optional[float] = None, *, dry_run: bool = False
    ) -> GCReport:
        local_report = self.local.gc(max_age_days, dry_run=dry_run)
        shared_report = self.shared.gc(max_age_days, dry_run=dry_run)
        return GCReport(
            tuple(local_report.entries) + tuple(shared_report.entries),
            dry_run=dry_run,
        )

    # ------------------------------------------------------------------
    # statistics

    def stats(self) -> Dict[str, Any]:
        record = super().stats()
        with self._counter_lock:
            record["write_back_errors"] = self._write_back_errors
        record["local"] = self.local.stats()
        record["shared"] = self.shared.stats()
        return record

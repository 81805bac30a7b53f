"""Tiered backend: local-first read-through with async shared write-back.

The read path costs what the local tier costs: a local hit never
touches the shared tier, a local miss falls through to the shared tier
and — on a hit there — *promotes* the entry into the local tier so the
next read is local too.  The write path is local-synchronous (the
caller's durability story is unchanged from a plain local store) with
the shared copy landing asynchronously from a single daemon writer
thread, so fleet workers and CI runners feed a common warm cache
without paying shared-filesystem latency inside the flow.

The write-back queue is bounded; when it backs up (a slow shared tier)
the put degrades to a synchronous shared write rather than dropping
the entry — the shared tier is only useful if it actually fills.
``flush()`` blocks until queued write-backs have landed; callers that
are about to exit (benchmarks, the CLI) should flush, and the backend
also registers an ``atexit`` flush when the writer thread first spins
up.  Write-back failures are swallowed (the local tier already has the
entry; the shared tier is an optimisation) but counted, and surface in
:meth:`TieredBackend.stats` as ``write_back_errors``.

The backend counts the queued write-backs of each entry.  A local miss
on an entry with one queued waits for it to land before reading the
shared tier, so an entry the local tier drops as stale or corrupt is
found, and dropped, in the shared tier too, instead of landing there
afterwards.  A miss on any other entry does not wait.
"""

from __future__ import annotations

import atexit
import queue
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.store.backends.base import (
    BlobKey,
    BlobStat,
    GCReport,
    StoreBackend,
)

#: Queue slots before a put degrades to a synchronous shared write.
_WRITE_BACK_QUEUE_SLOTS = 256


class TieredBackend(StoreBackend):
    """Local tier in front of a shared tier (read-through/write-back)."""

    name = "tiered"

    def __init__(self, local: StoreBackend, shared: StoreBackend) -> None:
        super().__init__()
        self.local = local
        self.shared = shared
        self._queue: Optional["queue.Queue"] = None
        self._writer: Optional[threading.Thread] = None
        self._writer_lock = threading.Lock()
        self._write_back_errors = 0
        # blob key -> write-backs put and not yet landed; notified as
        # each key's count drops to zero
        self._pending: Dict[Tuple[str, str, str], int] = {}
        self._landed = threading.Condition(threading.Lock())

    # the tiers carry their own configuration; queue and writer thread
    # are rebuilt lazily on the far side of a process-pool boundary
    def __reduce__(self):
        return (TieredBackend, (self.local, self.shared))

    @property
    def root(self) -> Path:
        return self.local.root

    # ------------------------------------------------------------------
    # the write-back machinery

    def _writer_queue(self) -> "queue.Queue":
        with self._writer_lock:
            if self._queue is None:
                self._queue = queue.Queue(maxsize=_WRITE_BACK_QUEUE_SLOTS)
                self._writer = threading.Thread(
                    target=self._drain,
                    args=(self._queue,),
                    name="repro-store-writeback",
                    daemon=True,
                )
                self._writer.start()
                atexit.register(self.flush)
            return self._queue

    def _drain(self, q: "queue.Queue") -> None:
        while True:
            item = q.get()
            if item is None:
                q.task_done()
                return
            try:
                self.shared.put(*item)
            except Exception:
                with self._counter_lock:
                    self._write_back_errors += 1
            finally:
                self._landed_one(item[:3])
                q.task_done()

    def _landed_one(self, key: Tuple[str, str, str]) -> None:
        with self._landed:
            left = self._pending[key] - 1
            if left:
                self._pending[key] = left
            else:
                del self._pending[key]
                self._landed.notify_all()

    def flush(self) -> None:
        q = self._queue  # close() may clear the attribute concurrently
        if q is not None:
            q.join()
        self.local.flush()
        self.shared.flush()

    def close(self) -> None:
        with self._writer_lock:
            writer, q = self._writer, self._queue
            self._writer, self._queue = None, None
        if q is not None:
            q.join()
            q.put(None)
        if writer is not None:
            writer.join(timeout=10.0)
        self.local.close()
        self.shared.close()

    # ------------------------------------------------------------------
    # the blob contract

    def get(self, kind: str, fingerprint: str, digest: str) -> Optional[Dict[str, Any]]:
        entry = self.local.get(kind, fingerprint, digest)
        if entry is not None:
            self._count_hit(kind)
            return entry
        key = (kind, fingerprint, digest)
        with self._landed:
            # read behind this entry's queued write-back, or a copy the
            # local tier just dropped as stale would land after the read
            self._landed.wait_for(lambda: key not in self._pending)
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
        key = (kind, fingerprint, digest)
        with self._landed:
            self._pending[key] = self._pending.get(key, 0) + 1
        try:
            self._writer_queue().put_nowait((kind, fingerprint, digest, entry))
        except queue.Full:
            # a backed-up shared tier slows us down rather than losing
            # the shared copy — workers rely on the common cache filling
            try:
                self.shared.put(kind, fingerprint, digest, entry)
            except Exception:
                with self._counter_lock:
                    self._write_back_errors += 1
            finally:
                self._landed_one(key)
        return path

    def stat(self, kind: str, fingerprint: str, digest: str) -> Optional[BlobStat]:
        return self.local.stat(kind, fingerprint, digest) or self.shared.stat(
            kind, fingerprint, digest
        )

    def delete(self, kind: str, fingerprint: str, digest: str) -> bool:
        # a queued write-back of this entry would land after the delete
        # and resurrect it in the shared tier
        self.flush()
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
        self.flush()  # don't gc the shared tier out from under queued writes
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

"""Local-disk backend: the historical ``ArtifactStore`` layout, extracted.

Entries live under ``root/<kind>/<fp[:2]>/<fp>-<digest>.json`` — one
JSON file per entry, inspectable with ordinary shell tools, cacheable
by CI (``actions/cache`` on the directory) and shareable by concurrent
worker processes.  With the default settings this backend is
byte-identical to the pre-backend ``ArtifactStore``: same paths, same
file contents, same atomic temp-sibling writes, same corrupt-entry
handling.

The write protocol is the one PR 3/4 hardened: stage the entry into a
sibling path unique per (pid, thread, monotonic counter) via
:func:`tmp_sibling`, then ``os.replace`` it into place, so a reader
never observes a half-written entry and two writers never share a temp
path.  Eviction (``max_bytes``) is LRU by last hit, where "last hit"
is the entry file's mtime — refreshed on every warm ``get`` only while
a cap is set, so the uncapped default never touches files it reads.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.store.backends.base import (
    BlobKey,
    BlobStat,
    GCReport,
    STORE_VERSION,
    StoreBackend,
    gc_entry,
    validate_entry,
)

#: Process-wide monotonic counter for temp-file names: two threads of
#: one process writing the same entry must never share a temp path
#: (``next()`` on a ``count`` is atomic under the GIL).
_TMP_COUNTER = itertools.count()


def tmp_sibling(path: Path) -> Path:
    """A write-then-``os.replace`` temp path next to ``path``, unique
    across processes (pid), threads (tid) and repeated writes
    (counter).  Shared by every atomic writer in :mod:`repro.store`."""
    return path.with_name(
        path.name
        + f".tmp.{os.getpid()}.{threading.get_ident()}.{next(_TMP_COUNTER)}"
    )


def default_store_dir() -> str:
    """The store root: ``$REPRO_STORE_DIR`` or ``.repro-store``.

    A repo-local default keeps the store next to the runs that filled
    it, which is also what CI caches between workflow runs.
    """
    return os.environ.get("REPRO_STORE_DIR", ".repro-store")


class LocalDiskBackend(StoreBackend):
    """One JSON file per entry under a local directory tree."""

    name = "local-disk"

    def __init__(
        self, root: Optional[str] = None, max_bytes: Optional[int] = None
    ) -> None:
        super().__init__()
        self._root = Path(root if root is not None else default_store_dir())
        self.max_bytes = max_bytes

    # disk backends cross process-pool boundaries as plain config; the
    # counters are per-process diagnostics and restart at zero
    def __reduce__(self):
        return (LocalDiskBackend, (str(self._root), self.max_bytes))

    @property
    def root(self) -> Path:
        return self._root

    # ------------------------------------------------------------------
    # paths

    def blob_path(self, kind: str, fingerprint: str, digest: str) -> Path:
        """On-disk location of one entry (it may not exist)."""
        return self._root / kind / fingerprint[:2] / f"{fingerprint}-{digest}.json"

    def _iter_paths(self, kind: Optional[str] = None) -> Iterator[Path]:
        if not self._root.is_dir():
            return
        if kind is not None:
            kind_dir = self._root / kind
            if kind_dir.is_dir():
                yield from sorted(kind_dir.glob("*/*.json"))
            return
        for kind_dir in sorted(self._root.iterdir()):
            if not kind_dir.is_dir():
                continue
            yield from sorted(kind_dir.glob("*/*.json"))

    @staticmethod
    def _key_of(path: Path) -> BlobKey:
        fingerprint, _, digest = path.stem.rpartition("-")
        return BlobKey(kind=path.parent.parent.name, fingerprint=fingerprint, digest=digest)

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # the blob contract

    def get(self, kind: str, fingerprint: str, digest: str) -> Optional[Dict[str, Any]]:
        path = self.blob_path(kind, fingerprint, digest)
        try:
            with open(path, "r", encoding="utf-8") as f:
                entry = validate_entry(json.load(f), kind)
        except FileNotFoundError:
            self._count_miss(kind)
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._discard(path)
            self._count_miss(kind)
            return None
        if self.max_bytes is not None:
            # refresh the LRU stamp (mtime) — only under a cap, so the
            # default uncapped backend never modifies what it reads
            try:
                os.utime(path, None)
            except OSError:
                pass
        self._count_hit(kind)
        return entry

    def put(self, kind: str, fingerprint: str, digest: str, entry: Dict[str, Any]) -> Path:
        path = self.blob_path(kind, fingerprint, digest)
        # json.dumps runs the C encoder (json.dump the pure-Python one)
        # and writes the same text; encoding first means an entry that
        # cannot be encoded leaves no temp file behind
        text = json.dumps(entry)
        path.parent.mkdir(parents=True, exist_ok=True)
        # pid alone is not unique enough: two threads of one process
        # (the serve path) writing the same entry would race on a shared
        # temp path — the helper adds thread id + monotonic counter
        tmp = tmp_sibling(path)
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            self._discard(tmp)
            raise
        if self.max_bytes is not None:
            self._evict_to_cap(keep=path)
        return path

    def stat(self, kind: str, fingerprint: str, digest: str) -> Optional[BlobStat]:
        path = self.blob_path(kind, fingerprint, digest)
        try:
            st = path.stat()
        except OSError:
            return None
        return BlobStat(size=st.st_size, created_at=st.st_mtime, last_hit=st.st_mtime)

    def delete(self, kind: str, fingerprint: str, digest: str) -> bool:
        path = self.blob_path(kind, fingerprint, digest)
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def iter_keys(self, kind: Optional[str] = None) -> Iterator[BlobKey]:
        for path in self._iter_paths(kind):
            yield self._key_of(path)

    # ------------------------------------------------------------------
    # eviction / gc

    def _evict_to_cap(self, keep: Optional[Path] = None) -> None:
        """Drop least-recently-hit entries until the tree fits the cap.

        The entry just written (``keep``) is never evicted by its own
        put — a cap smaller than one entry must not turn every put into
        an immediate self-eviction."""
        sized: List[Tuple[float, int, Path]] = []
        total = 0
        for path in self._iter_paths():
            try:
                st = path.stat()
            except OSError:
                continue
            sized.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        sized.sort(key=lambda item: (item[0], str(item[2])))
        for mtime, size, path in sized:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            self._discard(path)
            total -= size
            self._count_eviction(path.parent.parent.name)

    def gc(
        self, max_age_days: Optional[float] = None, *, dry_run: bool = False
    ) -> GCReport:
        import time

        entries: List[Dict[str, Any]] = []
        # repro: allow[monotonic-deadline] gc age-compares persisted wall-clock created_at stamps, not an in-process deadline
        cutoff = None if max_age_days is None else time.time() - max_age_days * 86400.0
        if self._root.is_dir():
            for tmp in sorted(self._root.glob("*/*/*.json.tmp.*")):
                size = 0
                try:
                    size = tmp.stat().st_size
                except OSError:
                    pass
                entries.append(
                    gc_entry(self._key_of(tmp), "stray temp file", size)
                )
                if not dry_run:
                    self._discard(tmp)
        for path in list(self._iter_paths()):
            key = self._key_of(path)
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            try:
                with open(path, "r", encoding="utf-8") as f:
                    entry = json.load(f)
                if entry["version"] != STORE_VERSION or "payload" not in entry:
                    raise ValueError("stale store entry")
                created = float(entry.get("created_at", 0.0))
            except (OSError, ValueError, KeyError, TypeError):
                entries.append(gc_entry(key, "unreadable entry", size))
                if not dry_run:
                    self._discard(path)
                continue
            if cutoff is not None and created < cutoff:
                entries.append(
                    gc_entry(key, f"older than {max_age_days:g} day(s)", size)
                )
                if not dry_run:
                    self._discard(path)
        return GCReport(entries, dry_run=dry_run)

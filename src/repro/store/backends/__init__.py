"""Pluggable storage backends for the content-addressed store.

========== =============================== ====================================
backend    storage                         use it when
========== =============================== ====================================
``local``  one JSON file per entry under   the default — single machine, CI
           ``root/<kind>/<fp[:2]>/…``      directory caches, shell-greppable
``sqlite`` one WAL-mode SQLite file        a shared tier: fleet workers or CI
                                           jobs warming from one file
``tiered`` local tier in front of a shared local-speed reads plus a common
           tier (read-through,             warm cache that fills as you work
           write-through)
========== =============================== ====================================

:func:`make_backend` maps the CLI surface (``--store-backend``,
``--shared-store``, ``--store-max-mb``) onto a configured backend;
:class:`repro.store.ArtifactStore` wraps whatever comes back.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigError
from repro.store.backends.base import (
    BlobKey,
    BlobStat,
    GCReport,
    STORE_VERSION,
    StoreBackend,
    gc_entry,
    validate_entry,
)
from repro.store.backends.disk import LocalDiskBackend, default_store_dir, tmp_sibling
from repro.store.backends.sqlite import SQLiteBackend
from repro.store.backends.tiered import TieredBackend

#: Accepted ``--store-backend`` values.
BACKEND_NAMES = ("local", "sqlite", "tiered")


def make_backend(
    backend: Optional[str] = None,
    *,
    store_dir: Optional[str] = None,
    shared_path: Optional[str] = None,
    max_bytes: Optional[int] = None,
) -> StoreBackend:
    """A configured :class:`StoreBackend` from CLI-shaped options.

    ``backend=None`` picks for you: ``tiered`` when a shared path is
    given (the only reason to give one), else the default ``local``.
    ``sqlite`` without an explicit ``shared_path`` keeps its DB file
    inside the store directory as ``store.sqlite``.
    """
    if backend is None:
        backend = "tiered" if shared_path else "local"
    if backend == "local":
        if shared_path:
            raise ConfigError(
                "--shared-store requires --store-backend sqlite or tiered"
            )
        return LocalDiskBackend(store_dir, max_bytes=max_bytes)
    if backend == "sqlite":
        path = shared_path or os.path.join(
            store_dir if store_dir is not None else default_store_dir(),
            "store.sqlite",
        )
        return SQLiteBackend(path, max_bytes=max_bytes)
    if backend == "tiered":
        if not shared_path:
            raise ConfigError(
                "--store-backend tiered requires --shared-store PATH"
            )
        # the cap protects the machine-local tier; the shared tier is
        # a deliberately-shared resource and is gc'd explicitly
        return TieredBackend(
            LocalDiskBackend(store_dir, max_bytes=max_bytes),
            SQLiteBackend(shared_path),
        )
    raise ConfigError(
        f"unknown store backend {backend!r} (choose from {', '.join(BACKEND_NAMES)})"
    )


__all__ = [
    "BACKEND_NAMES",
    "BlobKey",
    "BlobStat",
    "GCReport",
    "LocalDiskBackend",
    "SQLiteBackend",
    "STORE_VERSION",
    "StoreBackend",
    "TieredBackend",
    "default_store_dir",
    "gc_entry",
    "make_backend",
    "tmp_sibling",
    "validate_entry",
]

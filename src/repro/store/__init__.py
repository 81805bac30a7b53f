"""Persistent storage for the synthesis flow.

Two coordinated APIs:

* :class:`ArtifactStore` — a content-addressed cache of expensive stage
  artefacts (prepared AOI network, probability vectors, optimizer
  assignments, full flow records), keyed by the network's structural
  :meth:`~repro.network.netlist.LogicNetwork.fingerprint` plus the
  relevant :class:`~repro.core.config.FlowConfig` knobs.  The pipeline
  (``Pipeline(store=...)``) and the batch front-end
  (``run_many(store=...)``) consult it so repeated suite runs, table
  regenerations and CI recompute only what changed.
* :class:`RunStore` / :class:`RunRecord` — a run registry of archived
  flow/batch/sweep results with config provenance, loading back to real
  :class:`~repro.core.flow.FlowResult` objects and queryable by
  circuit, kind and date, one JSON file per run.

The artefact cache is a façade over a pluggable storage backend
(:mod:`repro.store.backends`); pick one with ``--store-backend`` /
``--shared-store`` on the CLI or :func:`make_backend` in code:

========== ================================ ===================================
backend    storage                          use it when
========== ================================ ===================================
``local``  one JSON file per entry under    the default — single machine, CI
           ``root/<kind>/<fp[:2]>/…``       directory caches, shell-greppable
``sqlite`` one WAL-mode SQLite file         a shared tier: fleet workers or CI
                                            jobs warming from one file
``tiered`` local tier in front of a shared  local-speed reads plus a common
           tier (read-through,              warm cache that fills as the fleet
           write-through)                   works
========== ================================ ===================================

Every backend honours the same contracts — atomic writes and
corrupt-entries-degrade-to-misses — and keeps per-kind
hit/miss/eviction counters surfaced by ``repro cache stats`` and the
serve/fleet ``/healthz`` payloads.  Size caps (``--store-max-mb``)
evict least-recently-hit entries first.
"""

from repro.store.artifacts import (
    ARTIFACT_KINDS,
    ArtifactStore,
    StoreStats,
    default_store_dir,
)
from repro.store.backends import (
    BACKEND_NAMES,
    GCReport,
    LocalDiskBackend,
    SQLiteBackend,
    StoreBackend,
    TieredBackend,
    make_backend,
)
from repro.store.runs import RunRecord, RunStore, RunStoreError
from repro.store.serialize import (
    StoreError,
    assignment_from_dict,
    assignment_to_dict,
    key_digest,
    network_from_dict,
    network_to_dict,
)

__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactStore",
    "BACKEND_NAMES",
    "GCReport",
    "LocalDiskBackend",
    "SQLiteBackend",
    "StoreBackend",
    "StoreStats",
    "TieredBackend",
    "default_store_dir",
    "make_backend",
    "RunRecord",
    "RunStore",
    "RunStoreError",
    "StoreError",
    "assignment_from_dict",
    "assignment_to_dict",
    "key_digest",
    "network_from_dict",
    "network_to_dict",
]

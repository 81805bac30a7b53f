"""Backend contract, concurrency-hammer, and shared-tier tests for
:mod:`repro.store.backends`.

The existing ``tests/test_store.py`` pins the default local-disk
behaviour (layout, counters, atomicity) through the ``ArtifactStore``
façade; this module exercises the backend layer itself — the SQLite
shared tier under simultaneous threads *and* process-pool workers, the
tiered read-through/write-through path, LRU eviction under size caps,
gc dry runs, and the CLI surface that selects backends.
"""

import gc
import json
import os
import pickle
import sqlite3
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.cli import main
from repro.core.batch import execute_one, process_pool
from repro.core.config import FlowConfig
from repro.errors import ConfigError
from repro.store import (
    ArtifactStore,
    LocalDiskBackend,
    RunRecord,
    RunStore,
    SQLiteBackend,
    TieredBackend,
    make_backend,
)
from repro.store.backends import GCReport

FP = "ab" * 32  # a plausible sha256-hex fingerprint
FP2 = "cd" * 32


def _backends(tmp_path):
    return {
        "local": LocalDiskBackend(str(tmp_path / "disk")),
        "sqlite": SQLiteBackend(str(tmp_path / "db.sqlite")),
        "tiered": TieredBackend(
            LocalDiskBackend(str(tmp_path / "tier-local")),
            SQLiteBackend(str(tmp_path / "tier-shared.sqlite")),
        ),
    }


# ---------------------------------------------------------------------------
# the contract, per backend


@pytest.mark.parametrize("name", ["local", "sqlite", "tiered"])
class TestBackendContract:
    def _store(self, tmp_path, name):
        return ArtifactStore(backend=_backends(tmp_path)[name])

    def test_round_trip_and_miss(self, tmp_path, name):
        store = self._store(tmp_path, name)
        store.put("flow", FP, ("k", 1), {"value": 7})
        assert store.get("flow", FP, ("k", 1)) == {"value": 7}
        assert store.get("flow", FP, ("k", 2)) is None
        assert store.has("flow", FP, ("k", 1))
        assert not store.has("flow", FP, ("k", 2))
        stats = store.stats()
        assert stats.hits == {"flow": 1} and stats.misses == {"flow": 1}

    def test_iter_keys_sorted_and_fingerprints(self, tmp_path, name):
        store = self._store(tmp_path, name)
        store.put("flow", FP2, ("k",), {"v": 1})
        store.put("flow", FP, ("k",), {"v": 2})
        store.put("probs", FP, ("k",), {"v": 3})
        keys = list(store.backend.iter_keys())
        assert keys == sorted(keys, key=lambda k: (k.kind, k.fingerprint, k.digest))
        assert store.fingerprints("flow") == tuple(sorted((FP, FP2)))
        flow_keys = list(store.backend.iter_keys("flow"))
        assert {k.kind for k in flow_keys} == {"flow"}

    def test_stat_delete_clear(self, tmp_path, name):
        store = self._store(tmp_path, name)
        store.put("flow", FP, ("k",), {"v": 1})
        stat = store.backend.stat("flow", FP, store_digest(("k",)))
        assert stat is not None and stat.size > 0
        assert store.backend.delete("flow", FP, store_digest(("k",)))
        assert not store.backend.delete("flow", FP, store_digest(("k",)))
        store.put("flow", FP, ("a",), {"v": 1})
        store.put("probs", FP, ("b",), {"v": 2})
        assert store.clear() == 2
        assert list(store.backend.iter_keys()) == []

    def test_pickle_round_trip_reaches_same_data(self, tmp_path, name):
        store = self._store(tmp_path, name)
        store.put("flow", FP, ("k",), {"v": 5})
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get("flow", FP, ("k",)) == {"v": 5}
        assert clone.backend.name == store.backend.name

    def test_stale_version_degrades_to_miss(self, tmp_path, name):
        store = self._store(tmp_path, name)
        digest = store_digest(("k",))
        store.backend.put(
            "flow", FP, digest,
            {"version": 999, "kind": "flow", "payload": {"v": 1}},
        )
        assert store.get("flow", FP, ("k",)) is None
        # the bad entry was deleted, not left to fail forever
        assert store.backend.stat("flow", FP, digest) is None

    def test_gc_report_is_an_int(self, tmp_path, name):
        store = self._store(tmp_path, name)
        store.put("flow", FP, ("k",), {"v": 1})
        report = store.gc(max_age_days=0.0, dry_run=True)
        assert isinstance(report, int) and report >= 1
        assert report.dry_run and all("reason" in e for e in report.entries)
        assert store.has("flow", FP, ("k",))  # nothing deleted
        removed = store.gc(max_age_days=0.0)
        assert removed >= 1 and not removed.dry_run
        assert not store.has("flow", FP, ("k",))


def store_digest(key):
    from repro.store.serialize import key_digest

    return key_digest(key)


# ---------------------------------------------------------------------------
# corruption, per physical backend


class TestCorruptionDegradesToMiss:
    def test_disk_corrupt_file(self, tmp_path):
        backend = LocalDiskBackend(str(tmp_path / "disk"))
        store = ArtifactStore(backend=backend)
        store.put("flow", FP, ("k",), {"v": 1})
        path = backend.blob_path("flow", FP, store_digest(("k",)))
        path.write_text("{ not json", encoding="utf-8")
        assert store.get("flow", FP, ("k",)) is None
        assert not path.exists()
        assert backend.counters()["misses"] == {"flow": 1}

    def test_sqlite_corrupt_row(self, tmp_path):
        db = str(tmp_path / "db.sqlite")
        store = ArtifactStore(backend=SQLiteBackend(db))
        store.put("flow", FP, ("k",), {"v": 1})
        with sqlite3.connect(db) as conn:
            conn.execute("UPDATE blobs SET entry = '{ not json'")
        assert store.get("flow", FP, ("k",)) is None
        with sqlite3.connect(db) as conn:
            assert conn.execute("SELECT COUNT(*) FROM blobs").fetchone()[0] == 0

    def test_sqlite_gc_sweeps_corrupt_rows(self, tmp_path):
        db = str(tmp_path / "db.sqlite")
        store = ArtifactStore(backend=SQLiteBackend(db))
        store.put("flow", FP, ("k",), {"v": 1})
        store.put("flow", FP2, ("k",), {"v": 2})
        with sqlite3.connect(db) as conn:
            conn.execute(
                "UPDATE blobs SET entry = 'garbage' WHERE fingerprint = ?", (FP,)
            )
        report = store.gc()
        assert report == 1
        assert report.entries[0]["reason"] == "unreadable entry"
        assert store.get("flow", FP2, ("k",)) == {"v": 2}


# ---------------------------------------------------------------------------
# LRU eviction under a size cap


class TestEviction:
    @pytest.mark.parametrize("kind_of_backend", ["local", "sqlite"])
    def test_least_recently_hit_goes_first(self, tmp_path, kind_of_backend):
        backend = _backends(tmp_path)[kind_of_backend]
        store = ArtifactStore(backend=backend)
        pad = "x" * 400
        store.put("flow", FP, ("a",), {"pad": pad})
        store.put("flow", FP, ("b",), {"pad": pad})
        if kind_of_backend == "local":
            # age the mtimes so the LRU order is unambiguous
            path_a = backend.blob_path("flow", FP, store_digest(("a",)))
            path_b = backend.blob_path("flow", FP, store_digest(("b",)))
            os.utime(path_a, (1_000, 1_000))
            os.utime(path_b, (2_000, 2_000))
        sizes = [
            backend.stat("flow", FP, store_digest((k,))).size for k in ("a", "b")
        ]
        # cap fits two entries; the put of a third must evict exactly one
        backend.max_bytes = sizes[0] + sizes[1] + sizes[0] // 2
        store.get("flow", FP, ("a",))  # refresh a: b becomes the LRU entry
        store.put("flow", FP, ("c",), {"pad": pad})
        assert store.has("flow", FP, ("a",))
        assert not store.has("flow", FP, ("b",))
        assert store.has("flow", FP, ("c",))
        assert backend.counters()["evictions"] == {"flow": 1}

    def test_uncapped_disk_get_does_not_touch_mtime(self, tmp_path):
        backend = LocalDiskBackend(str(tmp_path / "disk"))
        store = ArtifactStore(backend=backend)
        store.put("flow", FP, ("a",), {"v": 1})
        path = backend.blob_path("flow", FP, store_digest(("a",)))
        os.utime(path, (1_000, 1_000))
        store.get("flow", FP, ("a",))
        assert path.stat().st_mtime == 1_000  # byte/metadata-identical default


# ---------------------------------------------------------------------------
# tiered behaviour


class TestTieredBackend:
    def test_shared_hit_promotes_to_local(self, tmp_path):
        db = str(tmp_path / "shared.sqlite")
        seeder = ArtifactStore(backend=SQLiteBackend(db))
        seeder.put("flow", FP, ("k",), {"v": 9})
        tiered = TieredBackend(
            LocalDiskBackend(str(tmp_path / "local")), SQLiteBackend(db)
        )
        store = ArtifactStore(backend=tiered)
        assert store.get("flow", FP, ("k",)) == {"v": 9}
        # promoted: present in the local tier now, and the next get is local
        assert tiered.local.stat("flow", FP, store_digest(("k",))) is not None
        shared_hits_before = tiered.shared.counters()["hits"].get("flow", 0)
        assert store.get("flow", FP, ("k",)) == {"v": 9}
        assert tiered.shared.counters()["hits"].get("flow", 0) == shared_hits_before

    def test_put_lands_in_shared_before_it_returns(self, tmp_path):
        db = str(tmp_path / "shared.sqlite")
        tiered = TieredBackend(
            LocalDiskBackend(str(tmp_path / "local")), SQLiteBackend(db)
        )
        store = ArtifactStore(backend=tiered)
        store.put("flow", FP, ("k",), {"v": 3})
        observer = ArtifactStore(backend=SQLiteBackend(db))
        assert observer.get("flow", FP, ("k",)) == {"v": 3}

    def test_fingerprints_include_the_shared_tier(self, tmp_path):
        db = str(tmp_path / "shared.sqlite")
        seeder = ArtifactStore(backend=SQLiteBackend(db))
        seeder.put("flow", FP2, ("k",), {"v": 1})
        store = ArtifactStore(
            backend=TieredBackend(
                LocalDiskBackend(str(tmp_path / "local")), SQLiteBackend(db)
            )
        )
        store.put("flow", FP, ("k",), {"v": 2})
        # what a fleet worker announces as warm: local *and* shared
        assert store.fingerprints("flow") == tuple(sorted((FP, FP2)))

    def test_delete_removes_the_entry_from_both_tiers(self, tmp_path, monkeypatch):
        """A delete after a put wins, however slow the shared write: the
        shared copy may not land after the delete and bring the entry
        back."""
        tiered = TieredBackend(
            LocalDiskBackend(str(tmp_path / "local")),
            SQLiteBackend(str(tmp_path / "shared.sqlite")),
        )
        real_put = tiered.shared.put

        def slow_put(*args):
            time.sleep(0.2)  # a deferred shared write would land after the delete
            return real_put(*args)

        monkeypatch.setattr(tiered.shared, "put", slow_put)
        store = ArtifactStore(backend=tiered)
        store.put("flow", FP, ("k",), {"v": 1})
        assert tiered.delete("flow", FP, store_digest(("k",)))
        assert tiered.shared.stat("flow", FP, store_digest(("k",))) is None
        assert store.get("flow", FP, ("k",)) is None

    def test_stale_entry_does_not_land_in_the_shared_tier_after_its_drop(
        self, tmp_path, monkeypatch
    ):
        """A stale entry put through the tiered backend is in both tiers
        when the put returns, however slow the shared write, so the local
        miss that drops it falls through to the shared tier and drops it
        there too."""
        tiered = TieredBackend(
            LocalDiskBackend(str(tmp_path / "local")),
            SQLiteBackend(str(tmp_path / "shared.sqlite")),
        )
        real_put = tiered.shared.put

        def slow_put(*args):
            time.sleep(0.2)  # a deferred shared write would land after the get
            return real_put(*args)

        monkeypatch.setattr(tiered.shared, "put", slow_put)
        store = ArtifactStore(backend=tiered)
        digest = store_digest(("k",))
        tiered.put("flow", FP, digest, {"version": 999, "kind": "flow", "payload": {"v": 1}})
        assert store.get("flow", FP, ("k",)) is None
        assert tiered.shared.stat("flow", FP, digest) is None
        assert tiered.stat("flow", FP, digest) is None

    def test_stats_nest_both_tiers(self, tmp_path):
        store = ArtifactStore(
            backend=TieredBackend(
                LocalDiskBackend(str(tmp_path / "local")),
                SQLiteBackend(str(tmp_path / "shared.sqlite")),
            )
        )
        store.put("flow", FP, ("k",), {"v": 1})
        record = store.stats().backend
        assert record["backend"] == "tiered"
        assert record["local"]["backend"] == "local-disk"
        assert record["shared"]["backend"] == "sqlite"
        assert record["shared"]["entries"] == {"flow": 1}
        assert record["write_back_errors"] == 0


# ---------------------------------------------------------------------------
# concurrency hammer: threads


class TestSQLiteThreadHammer:
    def test_no_torn_reads_same_entry(self, tmp_path):
        store = ArtifactStore(backend=SQLiteBackend(str(tmp_path / "db.sqlite")))
        n_threads, n_rounds = 8, 25
        payloads = [{"value": i} for i in range(n_threads)]
        errors = []

        def hammer(i):
            try:
                for _ in range(n_rounds):
                    store.put("probs", FP, ("k",), payloads[i])
                    got = store.get("probs", FP, ("k",))
                    assert got in payloads, f"corrupt read: {got!r}"
            except Exception as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.get("probs", FP, ("k",)) in payloads

    def test_counters_exact_with_gc_interleaved(self, tmp_path):
        store = ArtifactStore(backend=SQLiteBackend(str(tmp_path / "db.sqlite")))
        store.put("flow", FP, ("warm",), {"ok": 1})
        n_threads, n_rounds = 8, 30
        errors = []

        def reader(i):
            try:
                for r in range(n_rounds):
                    assert store.get("flow", FP, ("warm",)) == {"ok": 1}
                    assert store.get("flow", FP, ("cold",)) is None
                    if i == 0 and r % 10 == 0:
                        store.gc()  # no age cutoff: must remove nothing
            except Exception as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = store.stats()
        assert stats.hits["flow"] == n_threads * n_rounds
        assert stats.misses["flow"] == n_threads * n_rounds

    def test_tiered_put_hammer_lands_every_entry_in_shared(self, tmp_path):
        db = str(tmp_path / "shared.sqlite")
        store = ArtifactStore(
            backend=TieredBackend(
                LocalDiskBackend(str(tmp_path / "local")), SQLiteBackend(db)
            )
        )
        n_threads, n_each = 6, 10

        def writer(i):
            for j in range(n_each):
                store.put("flow", FP, ("k", i, j), {"value": [i, j]})

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        observer = ArtifactStore(backend=SQLiteBackend(db))
        for i in range(n_threads):
            for j in range(n_each):
                assert observer.get("flow", FP, ("k", i, j)) == {"value": [i, j]}
        assert store.stats().backend["write_back_errors"] == 0


# ---------------------------------------------------------------------------
# concurrency hammer: process-pool workers sharing one DB


def _pool_hammer(db, i):
    """Worker-process body: put/get/gc against the shared DB."""
    store = ArtifactStore(backend=SQLiteBackend(db))
    observed = []
    for r in range(8):
        store.put("probs", FP, ("shared",), {"value": i})
        got = store.get("probs", FP, ("shared",))
        observed.append(None if got is None else got["value"])
        if r % 4 == 0:
            store.gc()  # no cutoff: prunes nothing, must not disturb readers
    store.close()
    return observed


def _pool_put(db, i):
    store = ArtifactStore(backend=SQLiteBackend(db))
    store.put("flow", FP, ("cross", i), {"value": i})
    store.close()
    return i


def _pool_get(db, i):
    store = ArtifactStore(backend=SQLiteBackend(db))
    got = store.get("flow", FP, ("cross", i))
    hit = store.stats().hits.get("flow", 0)
    store.close()
    return (None if got is None else got["value"], hit)


class TestSQLiteProcessPool:
    def test_cross_process_warm_hits(self, tmp_path):
        """Entries put by one process are warm hits in another — the
        shared-tier acceptance criterion, at the API level."""
        db = str(tmp_path / "shared.sqlite")
        n = 8
        with ProcessPoolExecutor(max_workers=4) as pool:
            assert sorted(pool.map(_pool_put, [db] * n, range(n))) == list(range(n))
        # a different pool (fresh processes) reads every entry warm
        with ProcessPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(_pool_get, [db] * n, range(n)))
        assert [value for value, _ in results] == list(range(n))
        assert all(hit == 1 for _, hit in results)

    def test_pool_hammer_no_torn_reads(self, tmp_path):
        db = str(tmp_path / "shared.sqlite")
        n = 6
        with ProcessPoolExecutor(max_workers=n) as pool:
            all_observed = list(pool.map(_pool_hammer, [db] * n, range(n)))
        valid = set(range(n))
        for observed in all_observed:
            assert observed, "worker observed nothing"
            assert set(observed) <= valid, f"corrupt read among {observed!r}"


# ---------------------------------------------------------------------------
# pooled jobs: every job unpickles its own copy of the store in the worker


def _worker_resources():
    """Live threads and open fds (``None`` without ``/proc/self/fd``)
    of the calling process, after a collection."""
    gc.collect()
    fd_dir = "/proc/self/fd"
    fds = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
    return threading.active_count(), fds


@pytest.mark.parametrize("name", ["local", "sqlite", "tiered"])
def test_pooled_jobs_leave_no_threads_or_fds_in_the_worker(tmp_path, name):
    """Once its cold jobs are done, a pool worker holds as many threads
    and open fds as before them, however many store copies it has
    unpickled."""
    store = ArtifactStore(backend=_backends(tmp_path)[name])
    config = FlowConfig(n_vectors=256)
    circuits = [
        random_control_network(
            f"leak{seed}",
            GeneratorConfig(n_inputs=8, n_outputs=3, n_gates=20, seed=seed),
        )
        for seed in range(6)
    ]
    with process_pool(1, ignore_sigint=True) as pool:
        before = pool.submit(_worker_resources).result(timeout=60)
        for network in circuits:
            outcome = pool.submit(
                execute_one, "network", network, config, store=store
            ).result(timeout=60)
            assert outcome.error is None and not outcome.cached
        after = pool.submit(_worker_resources).result(timeout=60)
    assert after[0] == before[0], "threads leaked"
    if before[1] is not None:
        assert after[1] == before[1], "fds leaked"


# ---------------------------------------------------------------------------
# RunStore: one JSON file per run, whatever the artefact backend


class TestRunStoreBackend:
    def _record(self, run_id):
        return RunRecord(
            run_id=run_id,
            kind="flow",
            created_at="2026-08-07T00:00:00.000000Z",
            circuits=["tiny"],
            config={"n_vectors": 256},
            records=[{"name": "tiny", "power_mp": 1.0}],
        )

    def test_default_layout_unchanged(self, tmp_path):
        runs = RunStore(str(tmp_path / "runs"))
        runs.save(self._record("flow-20260807T000000-ccc"))
        assert (tmp_path / "runs" / "flow-20260807T000000-ccc.json").is_file()


# ---------------------------------------------------------------------------
# the factory and the CLI surface


class TestMakeBackend:
    def test_defaults_to_local(self, tmp_path):
        backend = make_backend(store_dir=str(tmp_path / "s"))
        assert isinstance(backend, LocalDiskBackend)

    def test_shared_path_alone_selects_tiered(self, tmp_path):
        backend = make_backend(
            store_dir=str(tmp_path / "s"),
            shared_path=str(tmp_path / "shared.sqlite"),
        )
        assert isinstance(backend, TieredBackend)
        assert isinstance(backend.shared, SQLiteBackend)

    def test_sqlite_db_defaults_inside_store_dir(self, tmp_path):
        backend = make_backend("sqlite", store_dir=str(tmp_path / "s"))
        assert isinstance(backend, SQLiteBackend)
        assert str(backend.root) == str(tmp_path / "s" / "store.sqlite")

    def test_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            make_backend("tiered", store_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            make_backend("local", shared_path=str(tmp_path / "x.sqlite"))
        with pytest.raises(ConfigError):
            make_backend("bogus")

    def test_max_bytes_reaches_the_local_tier(self, tmp_path):
        backend = make_backend(
            store_dir=str(tmp_path / "s"),
            shared_path=str(tmp_path / "shared.sqlite"),
            max_bytes=1024,
        )
        assert backend.local.max_bytes == 1024
        assert backend.shared.max_bytes is None


class TestCLISurface:
    def test_cache_stats_shows_backend_breakdown(self, tmp_path, capsys):
        db = str(tmp_path / "shared.sqlite")
        seeder = ArtifactStore(backend=SQLiteBackend(db))
        seeder.put("flow", FP, ("k",), {"v": 1})
        seeder.get("flow", FP, ("k",))
        assert main(
            ["cache", "stats", "--store-backend", "sqlite", "--shared-store", db]
        ) == 0
        out = capsys.readouterr().out
        assert "per backend:" in out
        assert "[sqlite]" in out and "flow" in out

    def test_cache_gc_dry_run_deletes_nothing(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        store = ArtifactStore(store_dir)
        store.put("flow", FP, ("k",), {"v": 1})
        assert main(
            ["cache", "gc", "--store-dir", store_dir,
             "--max-age-days", "0", "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would remove 1" in out and "older than" in out
        assert store.has("flow", FP, ("k",))
        assert main(
            ["cache", "gc", "--store-dir", store_dir, "--max-age-days", "0"]
        ) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not store.has("flow", FP, ("k",))

    def test_tiered_without_shared_store_is_a_config_error(self, tmp_path):
        assert main(
            ["cache", "stats", "--store-dir", str(tmp_path / "s"),
             "--store-backend", "tiered"]
        ) == 2

    def test_second_process_dir_served_warm_from_shared(self, tmp_path, blif_file, capsys):
        """Two synth runs with *fresh* local dirs share one SQLite tier:
        the second is served from what the first wrote through to it."""
        db = str(tmp_path / "shared.sqlite")
        assert main(
            ["synth", blif_file, "--vectors", "256",
             "--store-dir", str(tmp_path / "local-a"), "--shared-store", db]
        ) == 0
        capsys.readouterr()
        assert main(
            ["synth", blif_file, "--vectors", "256",
             "--store-dir", str(tmp_path / "local-b"), "--shared-store", db]
        ) == 0
        assert "store: served from" in capsys.readouterr().out


@pytest.fixture
def blif_file(tmp_path, small_random):
    from repro.network.blif import save_blif

    path = tmp_path / "small.blif"
    save_blif(small_random, str(path))
    return str(path)

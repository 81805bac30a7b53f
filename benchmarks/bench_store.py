"""Store-tier round-trip benchmarks: cold vs local-warm vs shared-warm.

Measures what the shared cache tier actually buys: one full flow run
on a quick MCNC circuit with (a) no warm entries anywhere (``cold``),
(b) a warm local-disk store (``local-warm`` — the historical best
case), (c) a *fresh* local disk in front of a warm shared SQLite
tier (``shared-warm`` — what a brand-new fleet worker or CI runner
sees), and (d) a fresh local disk in front of a fresh shared SQLite
tier (``tiered-cold`` — a cold flow that also writes every entry
through to the shared tier).  Shared-warm should land near local-warm
and far under cold, and tiered-cold near cold; each mode appends its
mean wall time to ``BENCH_store.json`` so the bench-gate catches a
regression that silently turns shared hits back into recomputes, or
makes the shared writes dominate a cold flow.
"""

import itertools

import pytest

from conftest import mean_seconds, print_block, record_bench

from repro.bench.mcnc import spec_by_name
from repro.core.config import FlowConfig
from repro.core.pipeline import Pipeline
from repro.network.ops import cleanup, to_aoi
from repro.store import ArtifactStore, LocalDiskBackend, SQLiteBackend, TieredBackend

CONFIG = FlowConfig(n_vectors=512, seed=3)

#: Unique per-round directory names (benchmark rounds must stay cold).
_FRESH = itertools.count()


@pytest.fixture(scope="module")
def net():
    return cleanup(to_aoi(spec_by_name("frg1").build()))


def _record_mode(benchmark, mode: str, power: float) -> None:
    record = {"mode": mode, "circuit": "frg1", "n_vectors": CONFIG.n_vectors}
    mean = mean_seconds(benchmark)
    if mean is not None:
        record["mean_s"] = mean
    record_bench("store", record)
    print_block(
        f"store round-trip · {mode}",
        f"circuit frg1, {CONFIG.n_vectors} vectors, MP power {power:.3f}",
    )


@pytest.mark.benchmark(group="store")
def bench_store_cold(benchmark, net, tmp_path_factory):
    """Every round runs against a brand-new empty store."""

    def run():
        root = tmp_path_factory.mktemp(f"cold-{next(_FRESH)}")
        store = ArtifactStore(str(root / "store"))
        return Pipeline(CONFIG, store=store).run(net).flow

    result = benchmark(run)
    _record_mode(benchmark, "cold", result.mp.power_ma)


@pytest.mark.benchmark(group="store")
def bench_store_local_warm(benchmark, net, tmp_path_factory):
    """Rounds replay against an already-warm local-disk store."""
    root = tmp_path_factory.mktemp("local-warm")
    store = ArtifactStore(str(root / "store"))
    Pipeline(CONFIG, store=store).run(net)  # warm it

    result = benchmark(lambda: Pipeline(CONFIG, store=store).run(net).flow)
    _record_mode(benchmark, "local-warm", result.mp.power_ma)


@pytest.mark.benchmark(group="store")
def bench_store_shared_warm(benchmark, net, tmp_path_factory):
    """Rounds run with a fresh local disk served by a warm shared
    SQLite tier — the new-fleet-worker / new-CI-runner case."""
    root = tmp_path_factory.mktemp("shared-warm")
    shared_db = str(root / "shared.sqlite")
    seeder = ArtifactStore(
        backend=TieredBackend(
            LocalDiskBackend(str(root / "seeder-local")), SQLiteBackend(shared_db)
        )
    )
    Pipeline(CONFIG, store=seeder).run(net)

    def run():
        local = str(root / f"fresh-{next(_FRESH)}")
        store = ArtifactStore(
            backend=TieredBackend(LocalDiskBackend(local), SQLiteBackend(shared_db))
        )
        return Pipeline(CONFIG, store=store).run(net).flow

    result = benchmark(run)
    _record_mode(benchmark, "shared-warm", result.mp.power_ma)


@pytest.mark.benchmark(group="store")
def bench_store_tiered_cold(benchmark, net, tmp_path_factory):
    """Every round runs against a brand-new empty local tier in front
    of a brand-new empty shared SQLite tier."""

    def run():
        root = tmp_path_factory.mktemp(f"tiered-cold-{next(_FRESH)}")
        store = ArtifactStore(
            backend=TieredBackend(
                LocalDiskBackend(str(root / "local")),
                SQLiteBackend(str(root / "shared.sqlite")),
            )
        )
        return Pipeline(CONFIG, store=store).run(net).flow

    result = benchmark(run)
    _record_mode(benchmark, "tiered-cold", result.mp.power_ma)

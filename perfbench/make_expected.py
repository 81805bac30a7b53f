"""Regenerate ``perfbench/expected.json``.

    python3 perfbench/make_expected.py

Runs every circuit a workload can receive, inline and traced, and
records its table row and per-circuit work counters, plus the store
counters of one cold and one warm serving request.  Each MA/MP
estimate is cross-checked against the explicit-transform reference
before it is written.  Regenerate only for a change that is meant to
alter flow results or work counts, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import ArtifactStore, Pipeline  # noqa: E402
from repro.core.batch import execute_one  # noqa: E402
from repro.network.blif import parse_blif  # noqa: E402

from perfbench.circuits import (  # noqa: E402
    EXPECTED_PATH,
    LARGE_CONFIG,
    SMALL_CONFIG,
    SMALL_POOL_SIZE,
    build_large,
    config_record,
    encode_pool,
    estimator_mismatch,
    large_names,
    small_blif,
)
from perfbench.tracing import STORE_COUNTERS, Tracer, counter_delta  # noqa: E402


def run_pool(config, networks):
    rows, counters = {}, {}
    with Tracer().install(type(config.resolved_optimizer()[0])) as tracer:
        for network in networks:
            before = tracer.snapshot()
            flow = Pipeline(config).run(network).flow
            counters[network.name] = counter_delta(before, tracer.snapshot())
            rows[network.name] = flow.row()
            why = estimator_mismatch(network, flow, config)
            if why is not None:
                raise SystemExit(f"{network.name}: {why}")
            print(f"{network.name}: {rows[network.name]}", flush=True)
    return encode_pool(config, rows, counters)


def store_profiles(config, network):
    """Store counters of a cold request (probe, then run) and a warm one."""
    workdir = ROOT / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="expected-", dir=workdir)
    try:
        store = ArtifactStore(store_dir)
        profiles = {}
        with Tracer().install(type(config.resolved_optimizer()[0])) as tracer:
            for kind in ("cold", "warm"):
                before = tracer.snapshot()
                if Pipeline(config, store=store).cached_flow(network) is None:
                    execute_one("network", network, config, store=store)
                delta = counter_delta(before, tracer.snapshot())
                profiles[kind] = {k: v for k, v in delta.items() if k in STORE_COUNTERS}
        return profiles
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
        try:
            workdir.rmdir()
        except OSError:  # a benchmark run is using it
            pass


def main() -> None:
    small = SMALL_CONFIG.replace(stage_jobs=1)
    expected = {
        "large": run_pool(LARGE_CONFIG, [build_large(name) for name in large_names()]),
        "small": run_pool(small, [parse_blif(small_blif(i)) for i in range(SMALL_POOL_SIZE)]),
        "store": store_profiles(small, parse_blif(small_blif(0))),
    }
    # stage_jobs never changes results; record the config the runs use
    expected["small"]["config"] = config_record(SMALL_CONFIG)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    main()

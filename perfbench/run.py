"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search_large --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
Lines starting with ``#`` are the human-readable report (host and
settings metadata, every metric with unit and sample count, failed
checks, work-counter changes).  The last line is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the workload and metric names a run prints."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def host_metadata() -> dict:
    """What a result may only be compared under: same host, same settings."""
    import numpy

    calibration = []
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i for i in range(1_000_000))
        calibration.append(time.perf_counter() - start)
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "calibration_s": statistics.median(calibration),
    }


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[workload["name"] for workload in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench.circuits import load_expected
    from perfbench.workloads import WORKLOADS

    expected = load_expected()
    print(f"# host {json.dumps(host_metadata(), sort_keys=True)}", flush=True)
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), expected, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    outcome.settings = {"workload": args.workload, "seed": args.seed, **outcome.settings}
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    outcome.print_result([metric["name"] for metric in metrics])
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Gate CI on benchmark wall-clock trajectories.

``record_bench`` (see ``conftest.py``) appends one timestamped entry
per run to ``BENCH_<name>.json``, so each file holds the performance
history of a benchmark across commits.  This script reads every
trajectory, groups entries into *series* (the string-valued keys other
than ``recorded_at`` — ``kernel=...``, ``circuit=...`` — identify what
was measured), and compares the newest entry of each series against
the **best** earlier entry: comparing against the best rather than the
immediately previous run keeps a slow creep of small regressions from
ratcheting the baseline.

A series regresses when ``newest > best_prior * (1 + threshold)`` for
its timing metric (``wall_s``, else ``mean_s``; series without a
timing metric are skipped — quality metrics like ``avg_power`` have
their own asserts inside the benches).

The benches also record exact work counters (:data:`COUNTERS`: the
evaluation counts of the searches, the cell counts of mapped designs).
They are deterministic, so they carry no noise: a series whose newest
entry records a counter different from its previous entry's is a
behaviour change, whatever the threshold, and so is checked in every
series that records one, timing metric or not.

Any regression or behaviour change exits 1 with a per-series report;
missing, unreadable, or hand-mangled trajectory files are reported and
skipped, never fatal — a broken file should fail the bench that writes
it, not the gate that reads it.

Usage::

    python benchmarks/check_trajectory.py                 # default 15%
    python benchmarks/check_trajectory.py --threshold 0.5 # noisy runners
    python benchmarks/check_trajectory.py --bench-dir path/to/dir
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Timing metrics, in preference order; the first one present is used.
METRICS = ("wall_s", "mean_s")

#: Exact counters: any change from the previous entry is a behaviour change.
COUNTERS = ("evaluations", "avg_evals", "cells")

#: Default allowed slowdown vs the best prior run (15%).
DEFAULT_THRESHOLD = 0.15

SeriesKey = Tuple[Tuple[str, str], ...]


def series_key(entry: Dict[str, Any]) -> SeriesKey:
    """What this entry measured: the string-valued fields, minus the
    timestamp."""
    return tuple(
        sorted(
            (k, v)
            for k, v in entry.items()
            if isinstance(v, str) and k != "recorded_at"
        )
    )


def timing_metric(entry: Dict[str, Any]) -> Optional[Tuple[str, float]]:
    for metric in METRICS:
        value = entry.get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return metric, float(value)
    return None


def load_entries(path: Path) -> Optional[List[Dict[str, Any]]]:
    """The entry list, or None when the file is not a trajectory."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        return None
    return [e for e in entries if isinstance(e, dict)]


def counter_changes(path: Path, entries: List[Dict[str, Any]]) -> List[str]:
    """Report lines for every series whose newest entry records a
    :data:`COUNTERS` value different from its previous entry's."""
    by_series: Dict[SeriesKey, List[Dict[str, Any]]] = {}
    for entry in entries:
        by_series.setdefault(series_key(entry), []).append(entry)
    changes: List[str] = []
    for key, series in sorted(by_series.items()):
        if len(series) < 2:
            continue
        previous, newest = series[-2], series[-1]
        for counter in COUNTERS:
            if counter in previous and counter in newest and previous[counter] != newest[counter]:
                label = ", ".join(f"{k}={v}" for k, v in key) or "(unlabelled)"
                changes.append(
                    f"{path.name}: {label}: {counter} {newest[counter]!r} vs "
                    f"{previous[counter]!r} in the previous entry"
                )
    return changes


def check_file(path: Path, threshold: float) -> Tuple[List[str], int, List[str]]:
    """``(regression report lines, series checked, counter change
    report lines)`` for one trajectory."""
    entries = load_entries(path)
    if entries is None:
        print(f"note: {path.name} is not a readable trajectory; skipped")
        return [], 0, []

    by_series: Dict[SeriesKey, List[Tuple[str, float]]] = {}
    for entry in entries:
        timing = timing_metric(entry)
        if timing is None:
            continue
        by_series.setdefault(series_key(entry), []).append(timing)

    regressions: List[str] = []
    checked = 0
    for key, timings in sorted(by_series.items()):
        if len(timings) < 2:
            continue  # first recorded run: nothing to compare against
        checked += 1
        metric, newest = timings[-1]
        best_prior = min(value for _, value in timings[:-1])
        if best_prior <= 0.0:
            continue  # degenerate timing; a ratio would be meaningless
        if newest > best_prior * (1.0 + threshold):
            label = ", ".join(f"{k}={v}" for k, v in key) or "(unlabelled)"
            regressions.append(
                f"{path.name}: {label}: {metric} {newest:.6g}s vs best "
                f"{best_prior:.6g}s "
                f"(+{(newest / best_prior - 1.0) * 100.0:.1f}%, "
                f"threshold +{threshold * 100.0:.0f}%)"
            )
    return regressions, checked, counter_changes(path, entries)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when the newest benchmark run regresses "
        "wall-clock vs the best prior run, or changes an exact counter"
    )
    parser.add_argument(
        "--bench-dir",
        default=str(Path(__file__).resolve().parent),
        help="directory holding BENCH_*.json trajectories",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional slowdown vs the best prior run "
        f"(default {DEFAULT_THRESHOLD})",
    )
    args = parser.parse_args(argv)

    bench_dir = Path(args.bench_dir)
    files = sorted(bench_dir.glob("BENCH_*.json"))
    if not files:
        print(f"note: no BENCH_*.json trajectories under {bench_dir}")
        return 0

    all_regressions: List[str] = []
    all_changes: List[str] = []
    total_checked = 0
    for path in files:
        regressions, checked, changes = check_file(path, args.threshold)
        all_regressions.extend(regressions)
        all_changes.extend(changes)
        total_checked += checked

    for line in all_regressions:
        print(f"REGRESSION: {line}")
    for line in all_changes:
        print(f"BEHAVIOUR CHANGE: {line}")
    print(
        f"{len(files)} trajectory file(s), {total_checked} series checked, "
        f"{len(all_regressions)} regression(s), "
        f"{len(all_changes)} counter change(s)"
    )
    return 1 if all_regressions or all_changes else 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and
asserts its qualitative *shape* (who wins, roughly by how much), then
prints the regenerated rows so ``pytest benchmarks/ --benchmark-only``
output doubles as the experiment log.

Benches that measure something worth tracking over time additionally
call :func:`record_bench`, which appends a timestamped record to
``benchmarks/BENCH_<name>.json`` — a *trajectory* file accumulating one
entry per run, so performance drift across commits is a ``git log`` of
numbers rather than an anecdote.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional

import pytest

#: Where the BENCH_<name>.json trajectory files live.
BENCH_DIR = Path(__file__).resolve().parent


def record_bench(name: str, record: Dict[str, Any]) -> Path:
    """Append one timestamped record to ``BENCH_<name>.json``.

    The file holds ``{"benchmark": name, "entries": [...]}`` with one
    entry per recorded run; an unreadable or hand-mangled file is
    restarted rather than crashing the bench.  Writes are atomic
    (temp file + ``os.replace``) so a parallel reader never sees a
    half-written trajectory.
    """
    path = BENCH_DIR / f"BENCH_{name}.json"
    try:
        trajectory = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(trajectory.get("entries"), list):
            raise ValueError("not a trajectory file")
    except (OSError, ValueError):
        trajectory = {"benchmark": name, "entries": []}
    trajectory["benchmark"] = name
    trajectory["entries"].append(
        {
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            **record,
        }
    )
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def mean_seconds(benchmark) -> Optional[float]:
    """The benchmark's mean wall time in seconds, to 4 significant
    figures, so a microsecond kernel keeps as many digits as a
    one-second flow (``None`` when the plugin recorded no stats)."""
    try:
        mean = float(benchmark.stats.stats.mean)
    except AttributeError:  # pragma: no cover - plugin internals moved
        return None
    return float(f"{mean:.4g}")


def print_block(title: str, body: str) -> None:
    """Print a clearly delimited experiment block (shown with -s, and
    captured into the bench log otherwise)."""
    bar = "=" * 78
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


@pytest.fixture(scope="session")
def quick_vectors() -> int:
    """Monte-Carlo vector count used by the table benches."""
    return 2048

"""Metric collection, percentiles and the printed result."""

from __future__ import annotations

import json
import resource
import statistics
from typing import Dict, List, Sequence, Tuple


def p50(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def peak_rss_mb() -> float:
    """Peak resident set of this process or any finished child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Outcome:
    """Everything one workload run measured."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.notes: List[str] = []
        self.settings: Dict[str, object] = {}

    def add(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def fail(self, reason: str) -> None:
        """Count one failed item (error, refusal or wrong output)."""
        self.failures.append(reason)

    def print_result(self, names: Sequence[str]) -> None:
        """Human-readable lines, then the one-line JSON result."""
        for failure in self.failures[:20]:
            print(f"# FAILED {failure}")
        for note in self.notes:
            print(f"# {note}")
        print(f"# settings {json.dumps(self.settings, sort_keys=True)}")
        failed_frac = len(self.failures) / max(self.attempted, 1)
        print(f"# {'failed_frac':<32} {failed_frac:>14.6g} {'ratio':<6} n={self.attempted}")
        for name, (value, unit, n) in self.metrics.items():
            print(f"# {name:<32} {value:>14.6g} {unit:<6} n={n}")
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
        result = {
            "correct": not self.failures,
            "attempted": max(self.attempted, 1),
            "failed": len(self.failures),
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in names
            },
        }
        print(json.dumps(result), flush=True)

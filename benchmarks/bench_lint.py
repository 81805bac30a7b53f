"""Wall-clock trajectory of the invariant linter itself.

Not a paper experiment — the PR 9 effect engine made `lint src/` a
whole-program analysis (call graph + effect fixpoint + payload-origin
tracing), so its runtime is now worth gating like any other kernel:
a rule that accidentally goes quadratic in the call graph should show
up in ``check_trajectory.py``, not in CI minutes.  One series lands in
``BENCH_lint.json``: a cold full-rule-set run.
"""

from pathlib import Path

import pytest

from conftest import mean_seconds, record_bench

from repro.analysis import rule_names, run_lint

SRC_TREE = str(Path(__file__).resolve().parents[1] / "src" / "repro")


def _record_mode(benchmark, mode: str, report) -> None:
    record = {
        "mode": mode,
        "files": report.n_files,
        "rules": len(rule_names()),
        "findings": len(report.findings),
    }
    mean = mean_seconds(benchmark)
    if mean is not None:
        record["mean_s"] = mean
    record_bench("lint", record)


@pytest.mark.benchmark(group="lint")
def bench_lint_src_cold(benchmark):
    """Full rule set over src/repro: the CI gate path."""
    report = benchmark(run_lint, [SRC_TREE])
    _record_mode(benchmark, "cold", report)
    assert report.findings == []

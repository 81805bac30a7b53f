"""Tests for benchmarks/check_trajectory.py — the bench regression gate —
and for how the benches record the means it reads.

The checker and the benches' conftest are standalone files
(benchmarks/ is not a package), so both are loaded by file path.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

_BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SCRIPT = _BENCH_DIR / "check_trajectory.py"
check_trajectory = _load("check_trajectory", _SCRIPT)
bench_conftest = _load("bench_conftest", _BENCH_DIR / "conftest.py")


def _write(tmp_path, name, entries):
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(
        json.dumps({"benchmark": name, "entries": entries}), encoding="utf-8"
    )
    return path


def _entry(kernel, wall_s, stamp="2026-08-07T00:00:00+0000", metric="wall_s"):
    return {"recorded_at": stamp, "kernel": kernel, metric: wall_s}


def test_clean_trajectory_passes(tmp_path, capsys):
    _write(tmp_path, "components", [_entry("bdd", 1.0), _entry("bdd", 1.05)])
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 series checked, 0 regression(s)" in out


def test_regression_beyond_threshold_fails(tmp_path, capsys):
    _write(tmp_path, "components", [_entry("bdd", 1.0), _entry("bdd", 1.2)])
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "kernel=bdd" in out
    assert "+20.0%" in out


def test_newest_is_compared_against_best_prior_not_last(tmp_path):
    """A slow creep (1.0 -> 1.1 -> 1.21) must not ratchet the baseline:
    the newest run is 21% over the *best* prior even though each step
    is only 10% over the previous one."""
    entries = [_entry("bdd", 1.0), _entry("bdd", 1.1), _entry("bdd", 1.21)]
    _write(tmp_path, "components", entries)
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 1


def test_threshold_is_adjustable(tmp_path):
    _write(tmp_path, "components", [_entry("bdd", 1.0), _entry("bdd", 1.4)])
    args = ["--bench-dir", str(tmp_path), "--threshold", "0.5"]
    assert check_trajectory.main(args) == 0


def test_series_are_independent(tmp_path, capsys):
    """A regression in one kernel does not hide behind another kernel's
    improvement, and only the regressing series is reported."""
    _write(
        tmp_path,
        "components",
        [
            _entry("fast", 1.0),
            _entry("slow", 2.0),
            _entry("fast", 0.5),
            _entry("slow", 3.0),
        ],
    )
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "kernel=slow" in out
    assert "kernel=fast" not in out


def test_mean_s_metric_and_metricless_series(tmp_path, capsys):
    _write(
        tmp_path,
        "optimizers",
        [
            _entry("anneal", 0.010, metric="mean_s"),
            {"recorded_at": "x", "strategy": "greedy", "avg_power": 15.2},
            {"recorded_at": "x", "strategy": "greedy", "avg_power": 15.2},
            _entry("anneal", 0.020, metric="mean_s"),
        ],
    )
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "mean_s" in out
    assert "1 series checked" in out  # the timing-less series is skipped


def test_single_entry_series_is_skipped(tmp_path, capsys):
    _write(tmp_path, "components", [_entry("bdd", 1.0)])
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 0
    assert "0 series checked" in capsys.readouterr().out


def test_mangled_and_missing_files_are_not_fatal(tmp_path, capsys):
    (tmp_path / "BENCH_broken.json").write_text("not json", encoding="utf-8")
    (tmp_path / "BENCH_shape.json").write_text('{"entries": 5}', encoding="utf-8")
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("not a readable trajectory") == 2


def test_empty_directory_passes(tmp_path, capsys):
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 0
    assert "no BENCH_*.json" in capsys.readouterr().out


def test_repo_trajectories_parse():
    """The committed trajectory files must always be readable by the
    gate (the gate skips unreadable files, so this is the test that
    notices corruption)."""
    bench_dir = _SCRIPT.parent
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        assert check_trajectory.load_entries(path) is not None, path.name


def test_changed_counter_is_a_behaviour_change(tmp_path, capsys):
    """An exact counter that moves fails the gate however fast the run."""
    entries = [
        {**_entry("search", 1.0), "evaluations": 1541},
        {**_entry("search", 0.5), "evaluations": 1540},
    ]
    _write(tmp_path, "components", entries)
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "BEHAVIOUR CHANGE" in out and "REGRESSION" not in out
    assert "kernel=search: evaluations 1540 vs 1541" in out
    assert "0 regression(s), 1 counter change(s)" in out


def test_counters_are_gated_in_series_without_timing(tmp_path, capsys):
    """``BENCH_optimizers`` records quality figures and evaluation counts
    but no timing: its counters are gated all the same."""
    record = {"recorded_at": "x", "mode": "unbudgeted", "strategy": "pairwise"}
    entries = [
        {**record, "avg_power": 16.061, "avg_evals": 22.0},
        {**record, "avg_power": 16.061, "avg_evals": 22.0},
        {**record, "avg_power": 16.061, "avg_evals": 23.0},
    ]
    _write(tmp_path, "optimizers", entries)
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "strategy=pairwise: avg_evals 23.0 vs 22.0" in out
    assert "0 series checked" in out


def test_counters_compare_with_the_previous_entry(tmp_path, capsys):
    """A recorded change is the new reference: equal counters pass, and
    only the counters both entries record are compared."""
    entries = [
        {**_entry("map", 1.0), "cells": 165},
        {**_entry("map", 1.0), "cells": 170},
        {**_entry("map", 1.0), "cells": 170, "evaluations": 3},
    ]
    _write(tmp_path, "components", entries)
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 0
    assert "0 counter change(s)" in capsys.readouterr().out


def test_repo_trajectories_have_constant_counters():
    """Every committed series records the counters of its previous entry."""
    for path in sorted(_SCRIPT.parent.glob("BENCH_*.json")):
        entries = check_trajectory.load_entries(path)
        assert check_trajectory.counter_changes(path, entries) == [], path.name


def _benchmark_with_mean(mean_s):
    """The part of pytest-benchmark's fixture the benches read."""
    return SimpleNamespace(stats=SimpleNamespace(stats=SimpleNamespace(mean=mean_s)))


def test_bench_means_are_recorded_to_four_significant_figures(
    tmp_path, monkeypatch, capsys
):
    """A sub-microsecond kernel keeps its digits (6 decimals would record
    3.24e-7 s as 0.0, which the gate skips), so the gate can see it slow
    down."""
    mean_seconds = bench_conftest.mean_seconds
    assert mean_seconds(_benchmark_with_mean(3.24e-7)) == 3.24e-07
    assert mean_seconds(_benchmark_with_mean(1.2345678)) == 1.235
    monkeypatch.setattr(bench_conftest, "BENCH_DIR", tmp_path)
    for mean_s in (3.24e-7, 4.1e-7):
        bench_conftest.record_bench(
            "kernels",
            {"kernel": "tiny", "mean_s": mean_seconds(_benchmark_with_mean(mean_s))},
        )
    assert '"mean_s": 3.24e-07' in (tmp_path / "BENCH_kernels.json").read_text()
    assert check_trajectory.main(["--bench-dir", str(tmp_path)]) == 1
    assert "REGRESSION" in capsys.readouterr().out

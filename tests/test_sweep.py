"""Tests for sweep() grid expansion, store sharing across grid points,
cost-ordered batch scheduling, and per-item timeouts."""

import signal
import time

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.bench.mcnc import spec_by_name
from repro.core.batch import (
    _sigalrm_guard,
    expand_grid,
    format_sweep,
    predicted_cost,
    run_many,
    sweep,
)
from repro.core.config import FlowConfig
from repro.errors import BatchError, ConfigError
from repro.store import ArtifactStore, RunStore

FAST = FlowConfig(n_vectors=256)


def tiny_network(name="tiny", seed=3):
    cfg = GeneratorConfig(n_inputs=10, n_outputs=4, n_gates=28, seed=seed)
    return random_control_network(name, cfg)


class TestGridExpansion:
    def test_single_axis(self):
        assert expand_grid({"n_vectors": [256, 512, 1024]}) == [
            {"n_vectors": 256},
            {"n_vectors": 512},
            {"n_vectors": 1024},
        ]

    def test_cartesian_product_counts(self):
        grid = {
            "n_vectors": [256, 512, 1024],
            "timing_slack_fraction": [0.7, 0.85],
            "input_probability": [0.3, 0.5],
        }
        points = expand_grid(grid)
        assert len(points) == 3 * 2 * 2
        assert len({tuple(sorted(p.items())) for p in points}) == 12

    def test_empty_axis_rejected(self):
        with pytest.raises(BatchError):
            expand_grid({"n_vectors": []})

    def test_empty_grid_rejected(self):
        with pytest.raises(BatchError):
            sweep([tiny_network()], {})

    def test_no_circuits_rejected(self):
        with pytest.raises(BatchError):
            sweep([], {"n_vectors": [256]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            sweep([tiny_network()], {"not_a_knob": [1]})


class TestSweepRuns:
    def test_sweep_counts_and_point_lookup(self):
        result = sweep(
            [tiny_network("a", 3), tiny_network("b", 5)],
            {"n_vectors": [256, 512]},
            FAST,
        )
        assert result.n_points == 2
        assert result.n_items == 4
        assert result.n_ok == 4
        point = result.point(n_vectors=512)
        assert point.config.n_vectors == 512
        assert [item.name for item in point.items] == ["a", "b"]
        with pytest.raises(KeyError):
            result.point(n_vectors=9999)

    def test_sweep_matches_individual_runs(self):
        result = sweep([tiny_network()], {"n_vectors": [256, 512]}, FAST)
        for point in result.points:
            expected = run_many([tiny_network()], point.config)
            assert [i.result.row() for i in point.items] == [
                i.result.row() for i in expected.items
            ]

    def test_three_point_grid_shares_prepared_network(self, tmp_path):
        """The acceptance check: a 3-point n_vectors sweep stores the
        prepared network once and serves it to every other point."""
        store = ArtifactStore(tmp_path / "store")
        result = sweep(
            [tiny_network()],
            {"n_vectors": [256, 512, 1024]},
            FAST,
            store=store,
        )
        assert result.n_ok == 3
        stats = store.stats()
        # one shared prepare + probs entry, three of every downstream kind
        assert stats.entries["prepare"] == 1
        assert stats.entries["probs"] == 1
        assert stats.entries["flow"] == 3
        # the two later points were served the shared artefacts from disk
        assert store.hits.get("prepare", 0) == 2
        assert store.hits.get("probs", 0) == 2
        # and re-running the sweep is fully store-served
        warm = sweep(
            [tiny_network()], {"n_vectors": [256, 512, 1024]}, FAST, store=store
        )
        assert warm.n_cached == 3
        assert [
            [i.result.row() for i in p.items] for p in warm.points
        ] == [[i.result.row() for i in p.items] for p in result.points]

    def test_manifest_records_grid(self):
        result = sweep([tiny_network()], {"n_vectors": [256, 512]}, FAST)
        manifest = result.manifest()
        assert manifest["kind"] == "sweep"
        assert manifest["grid"] == {"n_vectors": [256, 512]}
        assert manifest["circuits"] == ["tiny"]
        assert [p["params"] for p in manifest["points"]] == [
            {"n_vectors": 256},
            {"n_vectors": 512},
        ]
        assert manifest["base_config"] == FAST.to_dict()
        assert all(p["n_ok"] == 1 for p in manifest["points"])

    def test_record_sweep_in_registry(self, tmp_path):
        runs = RunStore(tmp_path / "runs")
        result = sweep([tiny_network()], {"n_vectors": [256, 512]}, FAST)
        record = runs.record_sweep(result)
        loaded = runs.load(record.run_id)
        assert loaded.kind == "sweep"
        assert loaded.meta["grid"] == {"n_vectors": [256, 512]}
        assert [r["sweep_params"] for r in loaded.records] == [
            {"n_vectors": 256},
            {"n_vectors": 512},
        ]
        assert len(loaded.flow_results()) == 2

    def test_format_sweep(self):
        result = sweep([tiny_network()], {"n_vectors": [256]}, FAST)
        text = format_sweep(result)
        assert "n_vectors" in text and "1/1" in text


class TestScheduling:
    def test_predicted_cost_orders_specs(self):
        small, big = spec_by_name("frg1"), spec_by_name("x3")
        assert predicted_cost("spec", big) > predicted_cost("spec", small)

    def test_predicted_cost_network_and_path(self, tmp_path):
        net = tiny_network()
        assert predicted_cost("network", net) == float(len(net.gates)) * len(net.outputs)
        blif = tmp_path / "c.blif"
        blif.write_text("x" * 100)
        assert predicted_cost("blif", str(blif)) == 100.0
        assert predicted_cost("blif", str(tmp_path / "missing.blif")) == 0.0

    def test_cost_order_dispatches_largest_first(self):
        nets = [tiny_network("small", 3), tiny_network("big", 5)]
        # make "big" actually bigger
        cfg = GeneratorConfig(n_inputs=12, n_outputs=6, n_gates=60, seed=5)
        nets[1] = random_control_network("big", cfg)
        seen = []
        run_many(
            nets, FAST, order="cost", progress=lambda d, t, item: seen.append(item.name)
        )
        assert seen == ["big", "small"]

    def test_fifo_order_keeps_input_order(self):
        nets = [tiny_network("a", 3), tiny_network("b", 5)]
        seen = []
        run_many(
            nets, FAST, order="fifo", progress=lambda d, t, item: seen.append(item.name)
        )
        assert seen == ["a", "b"]

    def test_orders_agree_on_results(self):
        nets = [tiny_network("a", 3), tiny_network("b", 5)]
        by_cost = run_many(nets, FAST, order="cost")
        fifo = run_many(nets, FAST, order="fifo")
        assert [i.name for i in by_cost.items] == ["a", "b"]
        assert [i.result.row() for i in by_cost.items] == [
            i.result.row() for i in fifo.items
        ]

    def test_unknown_order_rejected(self):
        with pytest.raises(BatchError):
            run_many([tiny_network()], FAST, order="random")


class TestTimeouts:
    def test_bad_timeout_rejected(self):
        with pytest.raises(BatchError):
            run_many([tiny_network()], FAST, timeout_s=0)
        # values no guard can arm: NaN, inf, and past threading.TIMEOUT_MAX
        for bad in (float("inf"), float("nan"), 1e12):
            with pytest.raises(BatchError, match="timeout_s"):
                run_many([tiny_network()], FAST, jobs=1, timeout_s=bad)
        # a SIGALRM guard that fails to arm leaves the old handler in place
        before = signal.getsignal(signal.SIGALRM)
        with pytest.raises(OverflowError):
            _sigalrm_guard(float("inf"))
        assert signal.getsignal(signal.SIGALRM) is before

    def test_hung_item_fails_instead_of_stalling(self, monkeypatch):
        from repro.core import pipeline as pipeline_mod

        real_prepare = pipeline_mod._stage_prepare

        def slow_prepare(ctx):
            if ctx.network.name == "hang":
                time.sleep(30)
            return real_prepare(ctx)

        monkeypatch.setattr(pipeline_mod, "_stage_prepare", slow_prepare)
        monkeypatch.setitem(
            pipeline_mod._STAGE_TABLE, "prepare", (slow_prepare, "aoi")
        )
        started = time.perf_counter()
        batch = run_many(
            [tiny_network("hang", 3), tiny_network("fine", 5)], FAST, timeout_s=0.5
        )
        assert time.perf_counter() - started < 20
        hang, fine = batch.items
        assert not hang.ok and "timeout_s" in hang.error
        assert fine.ok

    def test_fast_items_unaffected_by_timeout(self):
        batch = run_many([tiny_network()], FAST, timeout_s=60.0)
        assert batch.n_ok == 1


class TestTimeoutsOffMainThread:
    """The per-item budget must hold where a service runs jobs: off the
    main thread (no SIGALRM) the watchdog guard takes over."""

    @staticmethod
    def _run_in_thread(fn):
        import threading

        box = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as exc:  # noqa: BLE001 — reraised below
                box["error"] = exc

        t = threading.Thread(target=target)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive(), "worker thread hung"
        if "error" in box:
            raise box["error"]
        return box["value"]

    def test_guard_interrupts_pure_python_loop_in_thread(self):
        from repro.core.batch import ItemTimeout, _timeout_guard

        def body():
            disarm = _timeout_guard(0.2)
            try:
                deadline = time.perf_counter() + 30.0
                while time.perf_counter() < deadline:
                    pass
                return "ran to completion"
            except ItemTimeout:
                return "interrupted"
            finally:
                disarm()

        started = time.perf_counter()
        assert self._run_in_thread(body) == "interrupted"
        assert time.perf_counter() - started < 20

    def test_run_many_timeout_enforced_from_non_main_thread(self, monkeypatch):
        from repro.core import pipeline as pipeline_mod

        real_prepare = pipeline_mod._stage_prepare

        def busy_prepare(ctx):
            if ctx.network.name == "hang":
                deadline = time.perf_counter() + 30.0
                while time.perf_counter() < deadline:  # interruptible spin
                    pass
            return real_prepare(ctx)

        monkeypatch.setattr(pipeline_mod, "_stage_prepare", busy_prepare)
        monkeypatch.setitem(
            pipeline_mod._STAGE_TABLE, "prepare", (busy_prepare, "aoi")
        )
        started = time.perf_counter()
        batch = self._run_in_thread(
            lambda: run_many(
                [tiny_network("hang", 3), tiny_network("fine", 5)],
                FAST,
                timeout_s=0.5,
            )
        )
        assert time.perf_counter() - started < 25
        hang, fine = batch.items
        assert not hang.ok and "timeout_s" in hang.error
        assert fine.ok

    def test_fast_items_unaffected_from_non_main_thread(self):
        batch = self._run_in_thread(
            lambda: run_many([tiny_network()], FAST, timeout_s=60.0)
        )
        assert batch.n_ok == 1

    def test_explicit_warning_when_unenforceable(self, monkeypatch):
        """When neither SIGALRM nor the CPython async-exc hook exists,
        the budget is dropped loudly, not silently."""
        import sys

        from repro.core import batch as batch_mod

        monkeypatch.setitem(sys.modules, "ctypes", None)  # import -> ImportError
        with pytest.warns(RuntimeWarning, match="cannot be enforced"):
            disarm = batch_mod._thread_timeout_guard(0.5)
        disarm()  # the no-op guard must still disarm cleanly

"""Stage-level MA/MP parallelism: ``FlowConfig.stage_jobs`` resolution,
bit-identical results at every thread count, the optimize_mp/MA-build
overlap, and ArtifactStore consistency when stage threads run
concurrently."""

import json
import threading

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core import pipeline as pipeline_mod
from repro.core.batch import run_many
from repro.core.config import (
    MAX_USEFUL_STAGE_JOBS,
    POOL_WORKER_ENV,
    FlowConfig,
    in_pool_worker,
)
from repro.core.pipeline import Pipeline
from repro.errors import ConfigError
from repro.report import flow_result_to_dict
from repro.store import ArtifactStore


def tiny_network(name="tiny", seed=3):
    cfg = GeneratorConfig(n_inputs=10, n_outputs=4, n_gates=28, seed=seed)
    return random_control_network(name, cfg)


def flow_json(flow) -> str:
    """Canonical byte representation of one FlowResult."""
    return json.dumps(flow_result_to_dict(flow), sort_keys=True)


FAST = FlowConfig(n_vectors=256)


class TestResolution:
    def test_explicit_value_wins(self):
        assert FAST.replace(stage_jobs=3).resolved_stage_jobs() == 3
        assert FAST.replace(stage_jobs=1).resolved_stage_jobs() == 1

    def test_auto_uses_threads_on_multicore(self, monkeypatch):
        monkeypatch.delenv(POOL_WORKER_ENV, raising=False)
        monkeypatch.setattr("repro.core.config._available_cpus", lambda: 8)
        assert FAST.resolved_stage_jobs() == MAX_USEFUL_STAGE_JOBS

    def test_auto_sequential_on_single_core(self, monkeypatch):
        monkeypatch.delenv(POOL_WORKER_ENV, raising=False)
        monkeypatch.setattr("repro.core.config._available_cpus", lambda: 1)
        assert FAST.resolved_stage_jobs() == 1

    def test_auto_respects_cpu_affinity_not_host_count(self, monkeypatch):
        """A container pinned to one CPU on a many-core host must not
        spawn useless stage threads: the affinity mask is the truth."""
        monkeypatch.delenv(POOL_WORKER_ENV, raising=False)
        monkeypatch.setattr("repro.core.config.os.cpu_count", lambda: 64)
        if hasattr(__import__("os"), "sched_getaffinity"):
            monkeypatch.setattr(
                "repro.core.config.os.sched_getaffinity", lambda pid: {0}
            )
        else:  # pragma: no cover — non-Linux fallback path
            monkeypatch.setattr("repro.core.config.os.cpu_count", lambda: 1)
        assert FAST.resolved_stage_jobs() == 1

    def test_auto_sequential_inside_pool_worker(self, monkeypatch):
        monkeypatch.setenv(POOL_WORKER_ENV, "1")
        monkeypatch.setattr("repro.core.config._available_cpus", lambda: 8)
        assert in_pool_worker()
        assert FAST.resolved_stage_jobs() == 1
        # an explicit setting still overrides the worker heuristic
        assert FAST.replace(stage_jobs=4).resolved_stage_jobs() == 4

    def test_mark_pool_worker_sets_the_sentinel(self, monkeypatch):
        """The one pool initializer marks the worker under either SIGINT
        policy (batch: keep the handler; serve/fleet: ignore it)."""
        import signal

        from repro.core.batch import _init_pool_worker

        handlers = []
        # record instead of installing: SIG_IGN must not leak into pytest
        monkeypatch.setattr(signal, "signal", lambda *args: handlers.append(args))
        for ignore_sigint in (False, True):
            monkeypatch.delenv(POOL_WORKER_ENV, raising=False)
            assert not in_pool_worker()
            _init_pool_worker(ignore_sigint)
            assert in_pool_worker()
        assert handlers == [(signal.SIGINT, signal.SIG_IGN)]
        monkeypatch.delenv(POOL_WORKER_ENV, raising=False)

    def test_serve_worker_init_marks_pool_worker(self, monkeypatch):
        """The service's local pool runs the one initializer with the
        ignore-SIGINT policy, so its workers are marked as pool workers."""
        import asyncio
        import signal

        from repro.core.batch import _init_pool_worker
        from repro.serve.service import LocalPoolBackend

        backend = LocalPoolBackend(workers=1)
        asyncio.run(backend.start())
        try:
            pool = backend._pool
            assert pool._initializer is _init_pool_worker
            initargs = pool._initargs
        finally:
            asyncio.run(backend.shutdown())
        assert initargs == (True,)

        handlers = []
        # record instead of installing: SIG_IGN must not leak into pytest
        monkeypatch.setattr(signal, "signal", lambda *args: handlers.append(args))
        monkeypatch.delenv(POOL_WORKER_ENV, raising=False)
        pool._initializer(*initargs)
        assert in_pool_worker()
        assert handlers == [(signal.SIGINT, signal.SIG_IGN)]
        monkeypatch.delenv(POOL_WORKER_ENV, raising=False)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FlowConfig(stage_jobs=-1)
        with pytest.raises(ConfigError):
            FlowConfig(stage_jobs=True)
        with pytest.raises(ConfigError):
            FlowConfig(stage_jobs=1.5)


class TestDeterminism:
    @pytest.mark.parametrize("timed", [False, True])
    def test_parallel_flow_is_bit_identical(self, timed):
        net = tiny_network()
        base = FAST.replace(timed=timed)
        sequential = Pipeline(base.replace(stage_jobs=1)).run(net)
        parallel = Pipeline(base.replace(stage_jobs=4)).run(net)
        assert flow_json(sequential.flow) == flow_json(parallel.flow)
        # same stages executed, none silently skipped by the threading
        assert [s.skipped for s in sequential.stages] == [
            s.skipped for s in parallel.stages
        ]

    def test_run_many_stage_jobs_override_is_bit_identical(self):
        nets = [tiny_network("a", 3), tiny_network("b", 5)]
        sequential = run_many(nets, FAST, stage_jobs=1)
        threaded = run_many(nets, FAST, stage_jobs=4)
        assert all(item.ok for item in threaded.items)
        for s, t in zip(sequential.items, threaded.items):
            assert flow_json(s.result) == flow_json(t.result)
            # the override reaches the item configs
            assert t.config.stage_jobs == 4

    def test_variant_units_actually_run_on_stage_threads(self, monkeypatch):
        seen = []
        real = pipeline_mod._build_variant

        def spying(ctx, label, assignment, est_power=None):
            seen.append((label, threading.current_thread().name))
            return real(ctx, label, assignment, est_power)

        monkeypatch.setattr(pipeline_mod, "_build_variant", spying)
        Pipeline(FAST.replace(stage_jobs=2)).run(tiny_network())
        labels = {label for label, _ in seen}
        assert labels == {"MA", "MP"}
        # the MA lookahead (and at least one unit) ran on a stage thread
        assert any(name.startswith("repro-stage") for _, name in seen)

    def test_stale_lookahead_recomputed(self):
        """If the prebuilt MA variant no longer matches the assignment
        the transform stage settles on, it is discarded, not used."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.pipeline import _stage_transform_map

        net = tiny_network()
        config = FAST.replace(stage_jobs=2)
        run = Pipeline(config).run(net)
        ctx = run.context
        # poison a fake prebuild carrying a different assignment
        from repro.phase import PhaseAssignment

        wrong = pipeline_mod._build_variant(
            ctx, "MA", PhaseAssignment.all_negative(ctx.aoi.output_names())
        )
        with ThreadPoolExecutor(max_workers=1) as pool:
            ctx.executor = pool
            future = pool.submit(lambda: wrong)
            ctx.ma_prebuild = future
            builds = _stage_transform_map(ctx)
            ctx.executor = None
        assert builds["MA"].assignment == run.context.builds["MA"].assignment
        assert builds["MA"] is not wrong


class TestTimeoutInteraction:
    def test_budgeted_item_runs_stages_sequentially(self, monkeypatch):
        """A per-item timeout_s forces stage_jobs=1: the guard raises in
        the orchestrating thread, so hung work in a stage thread would
        survive the timeout and then be joined — stalling the batch the
        budget exists to prevent."""
        from repro.core import pipeline as pm
        from repro.core.batch import execute_one

        seen = []
        real = pm.Pipeline

        class Spy(real):
            def __init__(self, config=None, **kwargs):
                seen.append(config.resolved_stage_jobs())
                super().__init__(config, **kwargs)

        monkeypatch.setattr(pm, "Pipeline", Spy)
        net = tiny_network()
        outcome = execute_one(
            "network", net, FAST.replace(stage_jobs=4), timeout_s=600.0
        )
        assert outcome.ok
        assert seen == [1]
        # without a budget, the explicit setting is honoured
        execute_one("network", net, FAST.replace(stage_jobs=4))
        assert seen == [1, 4]


class TestSharedStateUnderThreads:
    def test_store_consistent_under_concurrent_stage_threads(self, tmp_path):
        net = tiny_network()
        reference = flow_json(Pipeline(FAST).run(net).flow)
        store = ArtifactStore(tmp_path / "store")
        config = FAST.replace(stage_jobs=4)
        results, errors = [], []

        def worker():
            try:
                results.append(
                    flow_json(Pipeline(config, store=store).run(net).flow)
                )
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=240)
        assert not errors
        assert all(r == reference for r in results)
        # the store stayed coherent: a fresh run is served whole from it
        warm = Pipeline(FAST.replace(stage_jobs=1), store=store).run(net)
        assert all(s.cached or s.skipped for s in warm.stages)
        assert flow_json(warm.flow) == reference

    def test_warm_store_run_identical_across_stage_jobs(self, tmp_path):
        net = tiny_network()
        store = ArtifactStore(tmp_path / "store")
        cold = Pipeline(FAST.replace(stage_jobs=2), store=store).run(net)
        warm = Pipeline(FAST.replace(stage_jobs=1), store=store).run(net)
        assert flow_json(cold.flow) == flow_json(warm.flow)
        assert all(s.cached or s.skipped for s in warm.stages)


class TestStoreIdentity:
    def test_stage_jobs_excluded_from_keys(self):
        a = FAST.replace(stage_jobs=1)
        b = FAST.replace(stage_jobs=4)
        assert a.cache_key() == b.cache_key()
        assert a.result_key() == b.result_key()

    def test_stage_jobs_round_trips(self):
        config = FAST.replace(stage_jobs=3)
        assert FlowConfig.from_dict(config.to_dict()).stage_jobs == 3
        assert FlowConfig.from_json(config.to_json()).stage_jobs == 3

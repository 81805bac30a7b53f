"""Tests for the async job-queue service: lifecycle (submit / poll /
result / cancel / shutdown), bounded-queue backpressure, store-backed
instant hits, event streams, and error isolation."""

import asyncio
import contextlib
import time

import pytest

from helpers import hang_prepare

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.bench.mcnc import spec_by_name
from repro.core.batch import execute_one
from repro.core.config import FlowConfig
from repro.errors import QueueFullError, ServeError, ServiceClosedError, UnknownJobError
from repro.fleet import Coordinator, FleetBackend, Worker
from repro.serve import Service
from repro.store import ArtifactStore

FAST = FlowConfig(n_vectors=256)


def tiny_network(name="tiny", seed=3):
    cfg = GeneratorConfig(n_inputs=10, n_outputs=4, n_gates=28, seed=seed)
    return random_control_network(name, cfg)


def run(coro):
    """Drive one async test body to completion."""
    return asyncio.run(coro)


async def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.01)


@contextlib.asynccontextmanager
async def serving(backend, **kwargs):
    """A running Service on the local pool or on a one-worker loopback
    fleet, built as tests/test_execution_spine.py's TestLayerParity
    builds it."""
    if backend == "local-pool":
        async with Service(FAST, jobs=1, **kwargs) as svc:
            yield svc
        return
    coord = Coordinator(port=0, heartbeat_interval_s=0.2)
    async with Service(
        FAST, backend=FleetBackend(coord, max_inflight=4), **kwargs
    ) as svc:
        worker = Worker("127.0.0.1", coord.port, slots=1, worker_id="serve")
        task = asyncio.create_task(worker.run())
        try:
            await wait_until(lambda: "serve" in coord.workers)
            yield svc
        finally:
            worker.drain()
            await asyncio.wait_for(task, 60)


class TestLifecycle:
    def test_submit_runs_and_completes(self):
        async def body():
            async with Service(FAST, jobs=1, queue_size=4) as svc:
                job_id = await svc.submit(tiny_network())
                job = await svc.result(job_id, timeout=120)
                assert job.ok and job.state == "done" and not job.cached
                assert job.result.row()["ckt"] == "tiny"
                assert job.runtime_s > 0
                snap = svc.status(job_id)
                assert snap["state"] == "done" and "row" in snap
            assert svc.state == "closed"

        run(body())

    def test_events_trace_the_lifecycle(self):
        async def body():
            async with Service(FAST, jobs=1, queue_size=4) as svc:
                job_id = await svc.submit(tiny_network())
                await svc.result(job_id, timeout=120)
                events = [e async for e in svc.events(job_id)]
                assert [e["state"] for e in events] == ["queued", "running", "done"]
                assert [e["seq"] for e in events] == [0, 1, 2]
                assert "row" in events[-1]

        run(body())

    def test_failed_job_carries_traceback(self, tmp_path):
        async def body():
            async with Service(FAST, jobs=1, queue_size=4) as svc:
                job_id = await svc.submit(str(tmp_path / "missing.blif"))
                job = await svc.result(job_id, timeout=120)
                assert job.state == "failed" and not job.ok
                assert "missing.blif" in job.error
                assert "error" in svc.status(job_id)

        run(body())

    def test_per_job_config_override(self):
        async def body():
            async with Service(FAST, jobs=1, queue_size=4) as svc:
                job_id = await svc.submit(
                    tiny_network(), FAST.replace(n_vectors=128)
                )
                job = await svc.result(job_id, timeout=120)
                assert job.ok and job.config.n_vectors == 128

        run(body())

    def test_submit_after_shutdown_rejected(self):
        async def body():
            svc = Service(FAST, jobs=1, queue_size=2)
            await svc.start()
            await svc.shutdown()
            assert svc.state == "closed" and svc.backend._pool is None
            with pytest.raises(ServiceClosedError):
                await svc.submit(tiny_network())

        run(body())

    def test_unknown_job_id(self):
        async def body():
            async with Service(FAST, jobs=1, queue_size=2) as svc:
                with pytest.raises(UnknownJobError):
                    svc.status("job-999")
                with pytest.raises(UnknownJobError):
                    await svc.cancel("job-999")

        run(body())

    def test_bad_parameters_rejected(self):
        with pytest.raises(ServeError, match="queue_size"):
            Service(FAST, queue_size=0)
        with pytest.raises(ServeError, match="jobs"):
            Service(FAST, jobs=0)
        with pytest.raises(ServeError, match="timeout_s"):
            Service(FAST, timeout_s=0)


class TestBackpressure:
    def test_queue_full_rejects_submission(self):
        async def body():
            # a submission yields no scheduling point before the queue
            # insert, so with queue bound 1 the first fills the queue
            # before the dispatcher can drain it and the second bounces
            async with Service(FAST, jobs=1, queue_size=1) as svc:
                first = await svc.submit(tiny_network("a", 3))
                with pytest.raises(QueueFullError):
                    await svc.submit(tiny_network("b", 5))
                # a rejected submission leaves no job record behind
                assert len(svc.jobs_snapshot()) == 1
                # the accepted job still drains to completion, and the
                # freed slot reopens intake
                assert (await svc.result(first, timeout=240)).ok
                second = await svc.submit(tiny_network("b", 5))
                assert (await svc.result(second, timeout=240)).ok

        run(body())

    def test_queue_depth_reported(self):
        async def body():
            async with Service(FAST, jobs=1, queue_size=8) as svc:
                await svc.submit(tiny_network("a", 3))
                await svc.submit(tiny_network("b", 5))
                stats = await svc.stats()
                assert stats["state"] == "running"
                assert stats["queue_depth"] >= 1  # dispatcher holds ≤ 1

        run(body())


class TestCancel:
    def test_cancel_queued_job_never_runs(self):
        async def body():
            async with Service(FAST, jobs=1, queue_size=8) as svc:
                running = await svc.submit(tiny_network("a", 3))
                queued = await svc.submit(tiny_network("b", 5))
                assert await svc.cancel(queued) is True
                job = await svc.result(queued, timeout=10)
                assert job.state == "cancelled"
                assert job.started_at is None and job.result is None
                # the in-flight job is unaffected
                assert (await svc.result(running, timeout=240)).ok

        run(body())

    def test_cancel_finished_job_returns_false(self):
        async def body():
            async with Service(FAST, jobs=1, queue_size=4) as svc:
                job_id = await svc.submit(tiny_network())
                job = await svc.result(job_id, timeout=120)
                assert job.ok
                assert await svc.cancel(job_id) is False
                assert job.state == "done"  # terminal state is immutable

        run(body())

    @pytest.mark.parametrize("backend", ["local-pool", "fleet"])
    def test_cancel_running_job_is_refused_and_result_survives(self, backend):
        """Regression: cancelling a job whose worker already started
        used to ``future.cancel()`` the (still pending) asyncio future,
        which "succeeds" even though the pool work is executing — the
        client was told *cancelled* while the worker kept running.  A
        started job must report ``False`` and keep its real outcome,
        whichever backend runs it."""

        async def body():
            # big enough that it is still running when the cancel lands
            cfg = GeneratorConfig(
                n_inputs=16, n_outputs=10, n_gates=150, seed=21
            )
            slow = random_control_network("slowjob", cfg)
            async with serving(backend, queue_size=4) as svc:
                job_id = await svc.submit(slow)
                for _ in range(600):  # wait for the dispatcher to start it
                    if svc.job(job_id).state != "queued":
                        break
                    await asyncio.sleep(0.01)
                assert svc.job(job_id).state == "running"
                assert await svc.cancel(job_id) is False
                job = await svc.result(job_id, timeout=240)
                assert job.state == "done" and job.ok  # nothing was lost

        run(body())

    def test_cancel_before_any_fleet_worker_is_refused_and_job_completes(self):
        """A job the service has handed to a fleet backend is running as
        far as the service knows, even while no worker is registered to
        take it: cancel refuses it, and once a worker registers the job
        completes with the row the flow gives inline."""
        net = tiny_network()
        expected = execute_one("network", net, FAST).result.row()

        async def body():
            coord = Coordinator(port=0, heartbeat_interval_s=0.2)
            backend = FleetBackend(coord, max_inflight=4)
            async with Service(FAST, backend=backend, queue_size=4) as svc:
                job_id = await svc.submit(net)
                await wait_until(lambda: coord.jobs)
                assert svc.job(job_id).state == "running"
                assert [j.state for j in coord.jobs.values()] == ["pending"]
                assert await svc.cancel(job_id) is False
                worker = Worker("127.0.0.1", coord.port, slots=1,
                                worker_id="late")
                task = asyncio.create_task(worker.run())
                job = await svc.result(job_id, timeout=240)
                worker.drain()
                await asyncio.wait_for(task, 60)
            assert job.state == "done" and job.result.row() == expected

        run(body())

    def test_terminal_transitions_are_one_way(self):
        """A worker completing after a cancel (or any second transition)
        must never overwrite the first terminal state."""

        async def body():
            async with Service(FAST, jobs=1, queue_size=4) as svc:
                job_id = await svc.submit(tiny_network())
                job = await svc.result(job_id, timeout=120)
                assert job.state == "done"
                finished_at = job.finished_at
                await svc._finish(job, "cancelled")
                assert job.state == "done"
                assert job.finished_at == finished_at

        run(body())


class TestShutdown:
    def test_drain_completes_queued_work(self):
        async def body():
            svc = Service(FAST, jobs=2, queue_size=8)
            await svc.start()
            ids = [
                await svc.submit(tiny_network(name, seed))
                for name, seed in (("a", 3), ("b", 5), ("c", 7))
            ]
            await svc.shutdown(drain=True)
            assert svc.state == "closed" and svc.backend._pool is None
            assert all(svc.job(i).ok for i in ids)

        run(body())

    def test_abort_cancels_queued_work(self):
        async def body():
            svc = Service(FAST, jobs=1, queue_size=8)
            await svc.start()
            ids = [
                await svc.submit(tiny_network(name, seed))
                for name, seed in (("a", 3), ("b", 5), ("c", 7))
            ]
            await svc.shutdown(drain=False)
            assert svc.state == "closed" and svc.backend._pool is None
            states = [svc.job(i).state for i in ids]
            # whatever was already in flight finished; the rest were
            # cancelled without running
            assert all(s in ("done", "cancelled") for s in states)
            assert "cancelled" in states

        run(body())

    def test_shutdown_is_idempotent(self):
        async def body():
            svc = Service(FAST, jobs=1, queue_size=2)
            await svc.start()
            await svc.shutdown()
            await svc.shutdown()
            assert svc.state == "closed"

        run(body())


class TestStoreDedup:
    def test_repeat_submission_is_instant_cache_hit(self, tmp_path):
        async def body():
            store = ArtifactStore(tmp_path / "store")
            net = tiny_network()
            async with Service(FAST, jobs=1, queue_size=4, store=store) as svc:
                cold = await svc.result(await svc.submit(net), timeout=240)
                assert cold.ok and not cold.cached
                warm = await svc.result(await svc.submit(net), timeout=30)
                assert warm.ok and warm.cached
                # never queued, never ran: zero synthesis stages executed
                assert warm.started_at is None and warm.runtime_s == 0.0
                events = [e async for e in svc.events(warm.job_id)]
                assert [e["state"] for e in events] == ["done"]
                assert store.stats().hits.get("flow", 0) >= 1
                # rows are bit-identical either way
                assert warm.result.row() == cold.result.row()

        run(body())

    def test_different_config_misses_the_cache(self, tmp_path):
        async def body():
            store = ArtifactStore(tmp_path / "store")
            net = tiny_network()
            async with Service(FAST, jobs=1, queue_size=4, store=store) as svc:
                await svc.result(await svc.submit(net), timeout=240)
                other = await svc.result(
                    await svc.submit(net, FAST.replace(n_vectors=128)), timeout=240
                )
                assert other.ok and not other.cached

        run(body())

    def test_spec_submissions_dedup_too(self, tmp_path):
        async def body():
            store = ArtifactStore(tmp_path / "store")
            spec = spec_by_name("frg1")
            async with Service(FAST, jobs=1, queue_size=4, store=store) as svc:
                cold = await svc.result(await svc.submit(spec), timeout=240)
                warm = await svc.result(await svc.submit(spec), timeout=30)
                assert cold.ok and not cold.cached
                assert warm.ok and warm.cached and warm.started_at is None

        run(body())


class TestProgress:
    def test_progress_fires_and_is_isolated(self):
        seen = []

        def progress(done, total, item):
            seen.append((done, item.name, item.ok, item.cached))
            raise RuntimeError("bad subscriber")  # must not hurt the service

        async def body():
            async with Service(
                FAST, jobs=1, queue_size=4, progress=progress
            ) as svc:
                job = await svc.result(await svc.submit(tiny_network()), timeout=240)
                assert job.ok

        # isolated exactly as run_many isolates it: a warning, not silence
        with pytest.warns(RuntimeWarning, match="progress callback failed"):
            run(body())
        assert seen == [(1, "tiny", True, False)]

    def test_total_counts_submissions_past_history_eviction(self, tmp_path):
        """``total`` counts accepted submissions, so evicting finished
        records (``max_history``) never makes ``done`` exceed it — for
        queued runs and submit-time store hits alike."""
        seen = []

        async def body():
            store = ArtifactStore(tmp_path / "store")
            async with Service(
                FAST,
                jobs=1,
                queue_size=4,
                store=store,
                max_history=1,
                progress=lambda done, total, item: seen.append((done, total)),
            ) as svc:
                for _ in range(4):  # one cold run, then three store hits
                    await svc.result(await svc.submit(tiny_network()), timeout=240)

        run(body())
        assert seen == [(1, 1), (2, 2), (3, 3), (4, 4)]


class TestTimeouts:
    def test_timed_out_job_leaves_its_worker_clean(self, monkeypatch):
        """The budget fires on the pool worker's main thread; the same
        worker then runs the next job with no alarm left armed."""
        hang_prepare(monkeypatch, lambda: time.sleep(30))

        async def body():
            async with Service(FAST, jobs=1, queue_size=4, timeout_s=0.5) as svc:
                hung = await svc.result(
                    await svc.submit(tiny_network("hang", 3)), timeout=60
                )
                workers = set(svc.backend._pool._processes)
                fine = await svc.result(
                    await svc.submit(tiny_network("fine", 5)), timeout=60
                )
                assert hung.state == "failed" and "timeout_s=0.5" in hung.error
                assert fine.state == "done" and fine.ok
                assert len(workers) == 1
                assert set(svc.backend._pool._processes) == workers

        started = time.perf_counter()
        run(body())
        assert time.perf_counter() - started < 20


class TestReviewRegressions:
    """Regression coverage for review findings: bad timeout_s values,
    bounded finished-job history, and post-shutdown intake."""

    def test_nonpositive_submit_timeout_rejected(self):
        async def body():
            async with Service(FAST, jobs=1, queue_size=2) as svc:
                with pytest.raises(ServeError, match="timeout_s"):
                    await svc.submit(tiny_network(), timeout_s=0)
                with pytest.raises(ServeError, match="timeout_s"):
                    await svc.submit(tiny_network(), timeout_s=-5)
                assert svc.jobs_snapshot() == []  # nothing leaked

        run(body())

    def test_finished_history_is_bounded(self, tmp_path):
        async def body():
            store = ArtifactStore(tmp_path / "store")
            net = tiny_network()
            async with Service(
                FAST, jobs=1, queue_size=4, store=store, max_history=2
            ) as svc:
                first = await svc.submit(net)  # cold: runs once
                await svc.result(first, timeout=240)
                # instant cache hits: each finishes immediately
                later = [await svc.submit(net) for _ in range(3)]
                assert all(svc.job(i).cached for i in later[-2:])
                # only max_history finished jobs retained; oldest evicted
                assert len(svc.jobs_snapshot()) == 2
                with pytest.raises(UnknownJobError):
                    svc.status(first)

        run(body())

    def test_bad_max_history_rejected(self):
        with pytest.raises(ServeError, match="max_history"):
            Service(FAST, max_history=0)

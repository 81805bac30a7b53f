"""The execution spine: one :class:`Outcome` shape and one process-pool
path from :func:`execute_one` up through ``run_many``, the service's
local pool and the fleet.

Every layer, a store hit included, must report the same thing for the
same circuit — the same :class:`FlowResult`, equal with ``==`` — and
each pool owner must apply its SIGINT policy: Ctrl-C aborts a batch but
drains a service or a fleet worker."""

import asyncio
import dataclasses
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core import batch as batch_mod
from repro.core.batch import Outcome, execute_one, run_many
from repro.core.config import FlowConfig
from repro.fleet import Coordinator, FleetBackend, Worker
from repro.serve import Service
from repro.store import ArtifactStore

FAST = FlowConfig(n_vectors=256)


def tiny_network(name="spine", seed=7):
    cfg = GeneratorConfig(n_inputs=10, n_outputs=4, n_gates=28, seed=seed)
    return random_control_network(name, cfg)


async def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.02)


def summary(record):
    """What every layer must agree on: ok, result, first error line, cached."""
    first_error = (record.error or "").splitlines()[:1]
    return (record.ok, record.result, first_error, record.cached)


class TestOutcome:
    def test_ok_needs_a_result_and_no_error(self):
        assert Outcome(result=object()).ok
        assert not Outcome().ok
        assert not Outcome(result=object(), error="boom").ok

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Outcome().error = "late"

    def test_from_exception_names_the_failure(self):
        outcome = Outcome.from_exception(OSError("pool died"), "worker: ")
        assert outcome.error == "worker: OSError: pool died"
        assert (outcome.result, outcome.runtime_s, outcome.cached) == (None, 0.0, False)


class TestLayerParity:
    def test_every_layer_reports_the_same_outcome(self, tmp_path):
        """A good circuit and a missing BLIF through execute_one inline,
        run_many on a pool, Service on the local pool, and Service on a
        one-worker loopback fleet: identical ok, result, first error
        line and cached at every layer.  Served from one store by a
        repeat run_many and a Service answering at submit, the good
        circuit's result is still equal; only cached differs."""
        circuits = [tiny_network(), str(tmp_path / "missing.blif")]

        inline = [
            execute_one("network", circuits[0], FAST),
            execute_one("blif", circuits[1], FAST),
        ]
        batch = run_many(circuits, FAST, jobs=2)

        async def through(service):
            async with service as svc:
                job_ids = [await svc.submit(circuit) for circuit in circuits]
                return [await svc.result(job_id, timeout=240) for job_id in job_ids]

        async def through_fleet():
            coord = Coordinator(port=0, heartbeat_interval_s=0.2)
            service = Service(FAST, backend=FleetBackend(coord, max_inflight=4))
            async with service as svc:
                worker = Worker("127.0.0.1", coord.port, slots=1, worker_id="spine")
                task = asyncio.create_task(worker.run())
                await wait_until(lambda: "spine" in coord.workers)
                job_ids = [await svc.submit(circuit) for circuit in circuits]
                jobs = [await svc.result(job_id, timeout=240) for job_id in job_ids]
                worker.drain()
                await asyncio.wait_for(task, 60)
            return jobs

        layers = {
            "execute_one": inline,
            "run_many": batch.items,
            "service": asyncio.run(through(Service(FAST, jobs=1))),
            "fleet": asyncio.run(through_fleet()),
        }
        reference = [summary(record) for record in inline]
        for layer, records in layers.items():
            assert [summary(record) for record in records] == reference, layer
        good, missing = reference
        assert good[0] and good[1].name == "spine" and good[2] == []
        assert not missing[0] and missing[1] is None
        assert "missing.blif" in missing[2][0]

        store = ArtifactStore(tmp_path / "store")
        run_many(circuits, FAST, store=store, jobs=2)  # cold: fills the store

        async def resubmit():
            async with Service(FAST, jobs=1, store=store) as svc:
                job_ids = [await svc.submit(circuit) for circuit in circuits]
                warm = svc.job(job_ids[0])
                assert warm.finished and warm.started_at is None  # never queued
                return [await svc.result(job_id, timeout=240) for job_id in job_ids]

        store_hits = {
            "run_many store hit": run_many(circuits, FAST, store=store, jobs=2).items,
            "service store hit": asyncio.run(resubmit()),
        }
        for layer, records in store_hits.items():
            assert [summary(record) for record in records] == [
                good[:3] + (True,),
                missing,
            ], layer


class TestSigintPolicy:
    def test_batch_workers_keep_sigint_serve_and_fleet_ignore_it(self, monkeypatch):
        """Each pool owner's workers report their SIGINT handler: the
        default for run_many (Ctrl-C aborts the batch), SIG_IGN for the
        service's local pool and a fleet worker (Ctrl-C drains)."""
        probes = []

        class ProbedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probes.append(self.submit(signal.getsignal, signal.SIGINT))

        monkeypatch.setattr(batch_mod, "ProcessPoolExecutor", ProbedPool)

        run_many([tiny_network("a", 1), tiny_network("b", 2)], FAST, jobs=2)

        async def service_and_worker():
            async with Service(FAST, jobs=1):
                pass
            async with Coordinator(port=0, heartbeat_interval_s=0.2) as coord:
                worker = Worker("127.0.0.1", coord.port, slots=1, worker_id="sig")
                task = asyncio.create_task(worker.run())
                await wait_until(lambda: "sig" in coord.workers)
                worker.drain()
                await asyncio.wait_for(task, 60)

        asyncio.run(service_and_worker())
        handlers = [probe.result(timeout=60) for probe in probes]
        assert handlers == [signal.default_int_handler, signal.SIG_IGN, signal.SIG_IGN]

    def test_pool_initializer_applies_the_sigint_policy(self, monkeypatch):
        """The one pool initializer installs SIG_IGN under the drain
        policy (serve, fleet) and leaves the handler alone under the
        abort policy (run_many)."""
        handlers = []
        # record instead of installing: SIG_IGN must not leak into pytest
        monkeypatch.setattr(signal, "signal", lambda *args: handlers.append(args))
        batch_mod._init_pool_worker(False)
        assert handlers == []
        batch_mod._init_pool_worker(True)
        assert handlers == [(signal.SIGINT, signal.SIG_IGN)]

    def test_serve_pool_runs_the_initializer_ignoring_sigint(self):
        from repro.serve.service import LocalPoolBackend

        backend = LocalPoolBackend(workers=1)
        asyncio.run(backend.start())
        try:
            pool = backend._pool
            assert pool._initializer is batch_mod._init_pool_worker
            assert pool._initargs == (True,)
        finally:
            asyncio.run(backend.shutdown())

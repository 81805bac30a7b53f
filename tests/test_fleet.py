"""Fleet tests: wire protocol, coordinator supervision edges driven by
scripted fake workers (heartbeat loss, dead connections, bounded retry,
quarantine, handback), affinity routing, and a live two-worker HTTP stack
asserting byte-identical results to single-process serve."""

import asyncio
import json
import threading

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.bench.mcnc import spec_by_name
from repro.core.config import FlowConfig
from repro.core.flow import FlowResult, SynthesisVariant
from repro.errors import FleetError, ProtocolError
from repro.fleet import (
    Coordinator,
    FleetBackend,
    Goodbye,
    Heartbeat,
    JobAssign,
    JobFailed,
    JobResult,
    Lease,
    Quarantine,
    Register,
    Registered,
    Requeue,
    Worker,
    decode_message,
    decode_work,
    encode_message,
    encode_work,
    recv_message,
    send_message,
)
from repro.fleet.protocol import PROTOCOL_VERSION
from repro.phase import Phase, PhaseAssignment
from repro.report import flow_result_to_dict
from repro.serve import Service, serve_forever
from repro.store import ArtifactStore

FAST = FlowConfig(n_vectors=256)
FAKE_WORK = {"kind": "blif", "path": "nonexistent.blif"}
#: a flow result a scripted worker can send as a real wire record
FLOW = FlowResult(
    name="x",
    n_inputs=2,
    n_outputs=1,
    ma=SynthesisVariant("MA", PhaseAssignment({"o": Phase.POSITIVE}), size=3,
                        power_ma=1.5, estimated_power=0.25, critical_delay=7.0),
    mp=SynthesisVariant("MP", PhaseAssignment({"o": Phase.NEGATIVE}), size=4,
                        power_ma=1.25, estimated_power=0.125, critical_delay=7.5),
    timed=False,
    probability_method="bdd",
)


def tiny_network(name="tiny", seed=3):
    cfg = GeneratorConfig(n_inputs=10, n_outputs=4, n_gates=28, seed=seed)
    return random_control_network(name, cfg)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# wire protocol


class TestProtocol:
    def test_round_trip_every_message_type(self):
        messages = [
            Register(worker_id="w1", host="h", pid=1, slots=2,
                     warm_fingerprints=["ab" * 8]),
            Registered(worker_id="w1", heartbeat_interval_s=2.0, miss_limit=3),
            Heartbeat(worker_id="w1", inflight=["fleet-1"]),
            Lease(worker_id="w1", slots=2),
            JobAssign(job_id="fleet-1", name="frg1", work=FAKE_WORK,
                      config={}, timeout_s=5.0, fingerprint="f" * 16,
                      attempt=1),
            JobAssign(job_id="fleet-2", name="frg1", work=FAKE_WORK,
                      config={}),
            JobResult(job_id="fleet-1", flow={"ckt": "frg1"},
                      runtime_s=1.25, cached=True, fingerprint="f" * 16),
            JobFailed(job_id="fleet-1", error="boom", runtime_s=0.5),
            Requeue(job_id="fleet-1", reason="draining"),
            Quarantine(worker_id="w1", reason="3 failures"),
            Goodbye(worker_id="w1", reason="drained"),
        ]
        for msg in messages:
            decoded = decode_message(encode_message(msg))
            assert decoded == msg, type(msg).TYPE

    def test_frames_are_versioned_json(self):
        frame = json.loads(encode_message(Heartbeat(worker_id="w1")))
        assert frame["v"] == PROTOCOL_VERSION
        assert frame["type"] == "heartbeat"
        assert frame["worker_id"] == "w1"

    def test_version_mismatch_rejected(self):
        frame = json.loads(encode_message(Heartbeat(worker_id="w1")))
        frame["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_message(json.dumps(frame).encode())

    def test_unknown_type_rejected(self):
        bad = json.dumps({"v": PROTOCOL_VERSION, "type": "frobnicate"})
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(bad.encode())

    def test_unknown_field_rejected(self):
        frame = json.loads(encode_message(Heartbeat(worker_id="w1")))
        frame["extra"] = 1
        with pytest.raises(ProtocolError, match="unknown field"):
            decode_message(json.dumps(frame).encode())

    def test_missing_field_rejected(self):
        bad = json.dumps({"v": PROTOCOL_VERSION, "type": "requeue"})
        with pytest.raises(ProtocolError, match="requeue"):
            decode_message(bad.encode())

    def test_ill_typed_field_rejected(self):
        with pytest.raises(ProtocolError, match="worker_id"):
            Heartbeat(worker_id=7)
        with pytest.raises(ProtocolError, match="slots"):
            Lease(worker_id="w1", slots=0)
        with pytest.raises(ProtocolError, match="slots"):
            Register(worker_id="w1", host="h", pid=1, slots=0)

    def test_garbage_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_message(b"\xff\xfe not json")
        with pytest.raises(ProtocolError, match="object"):
            decode_message(b"[1,2,3]")

    def test_work_codec_network_round_trip(self):
        net = tiny_network("wire", 5)
        kind, payload = decode_work(encode_work("network", net))
        assert kind == "network"
        assert payload.fingerprint() == net.fingerprint()

    def test_work_codec_spec_round_trip(self):
        spec = spec_by_name("frg1")
        kind, payload = decode_work(encode_work("spec", spec))
        assert kind == "spec" and payload == spec

    def test_work_codec_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_work({"kind": "network", "network": {"bogus": 1}})
        with pytest.raises(ProtocolError):
            decode_work({"kind": "teapot"})
        with pytest.raises(ProtocolError):
            decode_work("not a dict")


# ----------------------------------------------------------------------
# scripted fake worker


class FakeWorker:
    """A hand-driven protocol endpoint for supervision tests: the test
    decides exactly when to register, lease, heartbeat, answer, or die."""

    def __init__(self, port, worker_id, slots=1, warm=()):
        self.port = port
        self.worker_id = worker_id
        self.slots = slots
        self.warm = list(warm)
        self.reader = None
        self.writer = None
        self._beats = None

    async def register(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        await send_message(
            self.writer,
            Register(worker_id=self.worker_id, host="test", pid=1,
                     slots=self.slots, warm_fingerprints=self.warm),
        )
        ack = await self.recv()
        assert isinstance(ack, Registered)
        return ack

    async def lease(self, slots=1):
        await send_message(self.writer, Lease(worker_id=self.worker_id,
                                              slots=slots))

    async def heartbeat(self):
        await send_message(self.writer, Heartbeat(worker_id=self.worker_id))

    def start_heartbeats(self, interval_s):
        async def loop():
            while True:
                await asyncio.sleep(interval_s)
                await self.heartbeat()

        self._beats = asyncio.create_task(loop())

    async def send(self, msg):
        await send_message(self.writer, msg)

    async def recv(self, timeout=10):
        return await asyncio.wait_for(recv_message(self.reader), timeout)

    async def close(self):
        if self._beats is not None:
            self._beats.cancel()
            try:
                await self._beats
            except asyncio.CancelledError:
                pass
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def wait_until(predicate, timeout=10, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return
        await asyncio.sleep(interval)
    raise AssertionError("condition never became true")


# ----------------------------------------------------------------------
# supervision edges


class TestSupervision:
    def test_heartbeat_loss_requeues_to_survivor(self):
        async def body():
            async with Coordinator(port=0, heartbeat_interval_s=0.05,
                                   miss_limit=2) as coord:
                silent = FakeWorker(coord.port, "silent")
                await silent.register()
                await silent.lease()
                job_id = await coord.submit(dict(FAKE_WORK), FAST, name="x")
                assign = await silent.recv()
                assert isinstance(assign, JobAssign)
                assert assign.attempt == 0
                # never heartbeat: the monitor declares this worker dead
                await wait_until(
                    lambda: coord.workers["silent"].state == "dead", timeout=5
                )
                assert coord.jobs[job_id].state == "pending"
                survivor = FakeWorker(coord.port, "survivor")
                await survivor.register()
                survivor.start_heartbeats(0.05)
                await survivor.lease()
                retry = await survivor.recv()
                assert isinstance(retry, JobAssign)
                assert retry.job_id == assign.job_id and retry.attempt == 1
                await survivor.send(JobResult(job_id=job_id,
                                              flow=flow_result_to_dict(FLOW),
                                              runtime_s=0.1))
                outcome = await asyncio.wait_for(coord.outcome(job_id), 10)
                # the coordinator decodes the wire record on arrival
                assert outcome.error is None and outcome.result == FLOW
                # the silent worker comes back under its id and reports
                # the job it lost: that late result is discarded
                await silent.close()
                await silent.register()
                silent.start_heartbeats(0.05)
                await silent.send(JobResult(job_id=job_id, flow={"late": 1},
                                            runtime_s=0.1, fingerprint="f" * 16))
                # frames of one connection are handled in order, so once
                # this lease counts, the late result has been handled
                await silent.lease()
                await wait_until(
                    lambda: coord.workers["silent"].open_leases == 1, timeout=5
                )
                assert coord.jobs[job_id].state == "done"
                again = await asyncio.wait_for(coord.outcome(job_id), 10)
                assert again.error is None and again.result == FLOW
                assert coord.workers["silent"].jobs_done == 0
                assert "f" * 16 not in coord.workers["silent"].warm
                await silent.close()
                await survivor.close()

        run(body())

    def test_undecodable_record_fails_only_its_job(self):
        async def body():
            async with Coordinator(port=0, heartbeat_interval_s=0.5) as coord:
                w = FakeWorker(coord.port, "w1", slots=2)
                await w.register()
                await w.lease(slots=2)
                bad = await coord.submit(dict(FAKE_WORK), FAST, name="x")
                good = await coord.submit(dict(FAKE_WORK), FAST, name="x")
                assert isinstance(await w.recv(), JobAssign)
                assert isinstance(await w.recv(), JobAssign)
                await w.send(JobResult(job_id=bad, flow={"ok": 1},
                                       runtime_s=0.1))
                outcome = await asyncio.wait_for(coord.outcome(bad), 10)
                assert outcome.result is None
                assert outcome.error.startswith(
                    "undecodable flow record from w1: ValueError"
                )
                assert coord.jobs[bad].state == "failed"
                assert not coord.jobs[good].finished
                # the coordinator keeps serving: the next job completes
                await w.send(JobResult(job_id=good,
                                       flow=flow_result_to_dict(FLOW),
                                       runtime_s=0.1))
                outcome = await asyncio.wait_for(coord.outcome(good), 10)
                assert outcome.error is None and outcome.result == FLOW
                assert coord.jobs[good].state == "done"
                await w.close()

        run(body())

    def test_dead_connection_requeues(self):
        async def body():
            async with Coordinator(port=0, heartbeat_interval_s=0.5) as coord:
                doomed = FakeWorker(coord.port, "doomed")
                await doomed.register()
                await doomed.lease()
                job_id = await coord.submit(dict(FAKE_WORK), FAST, name="x")
                assert isinstance(await doomed.recv(), JobAssign)
                await doomed.close()  # crash: TCP FIN mid-job
                await wait_until(
                    lambda: coord.workers["doomed"].state == "dead", timeout=5
                )
                assert coord.jobs[job_id].state == "pending"
                assert coord.jobs[job_id].attempts == 1

        run(body())

    def test_bounded_retry_exhaustion_surfaces_failure(self):
        async def body():
            async with Coordinator(port=0, heartbeat_interval_s=0.5,
                                   max_requeues=1) as coord:
                job_id = await coord.submit(dict(FAKE_WORK), FAST, name="x")
                for n in range(2):  # max_requeues + 1 lost workers
                    w = FakeWorker(coord.port, f"crash-{n}")
                    await w.register()
                    await w.lease()
                    assign = await w.recv()
                    assert isinstance(assign, JobAssign)
                    assert assign.attempt == n
                    await w.close()
                    await wait_until(
                        lambda wid=w.worker_id: coord.workers[wid].state
                        == "dead",
                        timeout=5,
                    )
                outcome = await asyncio.wait_for(coord.outcome(job_id), 10)
                assert outcome.result is None
                assert "gave up after 2 attempt" in outcome.error
                assert coord.jobs[job_id].state == "failed"

        run(body())

    def test_repeat_failures_quarantine_worker(self):
        async def body():
            async with Coordinator(port=0, heartbeat_interval_s=0.5,
                                   quarantine_after=2) as coord:
                flaky = FakeWorker(coord.port, "flaky")
                await flaky.register()
                for _ in range(2):
                    await flaky.lease()
                    job_id = await coord.submit(dict(FAKE_WORK), FAST,
                                                name="x")
                    assert isinstance(await flaky.recv(), JobAssign)
                    await flaky.send(JobFailed(job_id=job_id, error="boom"))
                    outcome = await asyncio.wait_for(coord.outcome(job_id), 10)
                    # deterministic failures surface, never retried
                    assert outcome.result is None and outcome.error == "boom"
                notice = await flaky.recv()
                assert isinstance(notice, Quarantine)
                assert coord.workers["flaky"].state == "quarantined"
                # a quarantined worker's leases are never served
                await flaky.lease()
                pending = await coord.submit(dict(FAKE_WORK), FAST, name="x")
                await asyncio.sleep(0.2)
                assert coord.jobs[pending].state == "pending"
                stats = coord.stats()
                assert stats["workers"]["quarantined"] == 1
                await flaky.close()

        run(body())

    def test_quarantine_survives_reconnect(self):
        async def body():
            async with Coordinator(port=0, heartbeat_interval_s=0.5,
                                   quarantine_after=1) as coord:
                flaky = FakeWorker(coord.port, "flaky")
                await flaky.register()
                await flaky.lease()
                job_id = await coord.submit(dict(FAKE_WORK), FAST, name="x")
                assert isinstance(await flaky.recv(), JobAssign)
                await flaky.send(JobFailed(job_id=job_id, error="boom"))
                assert isinstance(await flaky.recv(), Quarantine)
                await flaky.close()
                await wait_until(
                    lambda: coord.workers["flaky"].state == "dead", timeout=5
                )
                again = FakeWorker(coord.port, "flaky")
                await again.register()
                notice = await again.recv()  # told immediately
                assert isinstance(notice, Quarantine)
                assert coord.workers["flaky"].state == "quarantined"
                await again.close()

        run(body())

    def test_success_resets_failure_streak(self):
        async def body():
            async with Coordinator(port=0, heartbeat_interval_s=0.5,
                                   quarantine_after=2) as coord:
                w = FakeWorker(coord.port, "wobbly")
                await w.register()
                for error in ("boom", None, "boom"):
                    await w.lease()
                    job_id = await coord.submit(dict(FAKE_WORK), FAST,
                                                name="x")
                    assert isinstance(await w.recv(), JobAssign)
                    if error:
                        await w.send(JobFailed(job_id=job_id, error=error))
                    else:
                        await w.send(JobResult(job_id=job_id, flow={"ok": 1},
                                               runtime_s=0.1))
                    await coord.outcome(job_id)
                # fail, succeed, fail — never two consecutive
                assert coord.workers["wobbly"].state != "quarantined"
                assert coord.workers["wobbly"].failure_streak == 1
                await w.close()

        run(body())

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), 1e12, float("inf")])
    def test_submit_rejects_an_unarmable_budget(self, bad):
        async def body():
            async with Coordinator(port=0) as coord:
                with pytest.raises(FleetError, match="timeout_s"):
                    await coord.submit(dict(FAKE_WORK), FAST, timeout_s=bad)
                assert coord.jobs == {}

        run(body())

    def test_worker_handback_carries_no_retry_penalty(self):
        async def body():
            async with Coordinator(port=0, heartbeat_interval_s=0.5,
                                   max_requeues=0) as coord:
                a = FakeWorker(coord.port, "a")
                await a.register()
                await a.lease()
                job_id = await coord.submit(dict(FAKE_WORK), FAST, name="x")
                assert isinstance(await a.recv(), JobAssign)
                await a.send(Requeue(job_id=job_id, reason="draining"))
                await wait_until(
                    lambda: coord.jobs[job_id].state == "pending", timeout=5
                )
                # with max_requeues=0 any retry *penalty* would have
                # failed the job; a handback must not
                assert coord.jobs[job_id].attempts == 0
                b = FakeWorker(coord.port, "b")
                await b.register()
                await b.lease()
                retry = await b.recv()
                assert isinstance(retry, JobAssign) and retry.attempt == 0
                await a.close()
                await b.close()

        run(body())

    def test_graceful_goodbye_requeues_without_penalty(self):
        async def body():
            async with Coordinator(port=0, heartbeat_interval_s=0.5) as coord:
                w = FakeWorker(coord.port, "polite")
                await w.register()
                await w.lease()
                job_id = await coord.submit(dict(FAKE_WORK), FAST, name="x")
                assert isinstance(await w.recv(), JobAssign)
                await w.send(Goodbye(worker_id="polite", reason="drained"))
                await wait_until(
                    lambda: coord.workers["polite"].state == "dead", timeout=5
                )
                # goodbye mid-job still burns an attempt (the work was
                # lost), but the job returns to the queue
                assert coord.jobs[job_id].state == "pending"
                await w.close()

        run(body())


# ----------------------------------------------------------------------
# affinity routing


class TestAffinity:
    def test_repeat_fingerprint_prefers_warm_worker(self):
        async def body():
            fp = "ab" * 8
            async with Coordinator(port=0, heartbeat_interval_s=0.5) as coord:
                cold = FakeWorker(coord.port, "cold")
                warm = FakeWorker(coord.port, "warm", warm=[fp])
                await cold.register()
                await warm.register()
                await cold.lease()
                await warm.lease()
                # leases are processed asynchronously: submit only once
                # both workers are actually pickable
                await wait_until(
                    lambda: coord.workers["cold"].open_leases == 1
                    and coord.workers["warm"].open_leases == 1
                )
                # tie-break alone would pick "cold" (registered first);
                # the warm fingerprint must override that
                job_id = await coord.submit(dict(FAKE_WORK), FAST, name="x",
                                            fingerprint=fp)
                assign = await warm.recv()
                assert isinstance(assign, JobAssign)
                assert assign.fingerprint == fp
                stats = coord.stats()
                assert stats["affinity"]["hits"] == 1
                assert stats["affinity"]["misses"] == 0
                assert stats["affinity"]["hit_rate"] == 1.0
                await warm.send(JobResult(job_id=job_id, flow={"ok": 1},
                                          runtime_s=0.1, fingerprint=fp))
                await coord.outcome(job_id)
                await cold.close()
                await warm.close()

        run(body())

    def test_result_marks_worker_warm(self):
        async def body():
            fp = "cd" * 8
            async with Coordinator(port=0, heartbeat_interval_s=0.5) as coord:
                w = FakeWorker(coord.port, "w1")
                await w.register()
                await w.lease()
                job_id = await coord.submit(dict(FAKE_WORK), FAST, name="x",
                                            fingerprint=fp)
                assert isinstance(await w.recv(), JobAssign)
                assert coord.stats()["affinity"]["misses"] == 1
                await w.send(JobResult(job_id=job_id, flow={"ok": 1},
                                       runtime_s=0.1, fingerprint=fp))
                await coord.outcome(job_id)
                assert fp in coord.workers["w1"].warm
                await w.close()

        run(body())

    def test_unregistered_connection_is_dropped(self):
        async def body():
            async with Coordinator(port=0, heartbeat_interval_s=0.5) as coord:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", coord.port
                )
                # first frame must be a register; anything else drops us
                await send_message(writer, Heartbeat(worker_id="nope"))
                with pytest.raises(asyncio.IncompleteReadError):
                    await asyncio.wait_for(recv_message(reader), 10)
                assert coord.workers == {}
                writer.close()

        run(body())

    def test_constructor_validation(self):
        with pytest.raises(FleetError):
            Coordinator(heartbeat_interval_s=0)
        with pytest.raises(FleetError):
            Coordinator(miss_limit=0)
        with pytest.raises(FleetError):
            Coordinator(max_requeues=-1)
        with pytest.raises(FleetError):
            Coordinator(quarantine_after=0)
        with pytest.raises(FleetError):
            FleetBackend(Coordinator(), max_inflight=0)
        with pytest.raises(FleetError):
            Worker("h", 1, slots=0)


# ----------------------------------------------------------------------
# store warm scan


class TestStoreFingerprints:
    def test_fingerprints_lists_flow_entries(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.fingerprints() == ()
        store.put("flow", "aa" * 8, ("k",), {"x": 1})
        store.put("flow", "bb" * 8, ("k",), {"x": 2})
        store.put("flow", "bb" * 8, ("other",), {"x": 3})
        store.put("prepare", "cc" * 8, ("k",), {"x": 4})
        assert store.fingerprints() == ("aa" * 8, "bb" * 8)
        assert store.fingerprints("prepare") == ("cc" * 8,)


# ----------------------------------------------------------------------
# live fleet end-to-end (real workers, real flows)


class TestFleetEndToEnd:
    def test_two_real_workers_byte_identical_to_local(self, tmp_path):
        nets = [tiny_network("fleet-a", 31), tiny_network("fleet-b", 32)]

        async def local_rows():
            rows = {}
            async with Service(FAST, jobs=1) as svc:
                for net in nets:
                    job = await svc.result(await svc.submit(net), timeout=240)
                    rows[net.name] = job.result.row()
            return rows

        async def fleet_rows():
            coord = Coordinator(port=0, heartbeat_interval_s=0.2)
            backend = FleetBackend(coord, max_inflight=8)
            rows = {}
            async with Service(FAST, backend=backend) as svc:
                workers = [
                    Worker("127.0.0.1", coord.port, slots=1,
                           worker_id=f"real-{n}",
                           store=ArtifactStore(tmp_path / f"w{n}"))
                    for n in range(2)
                ]
                tasks = [asyncio.create_task(w.run()) for w in workers]
                await wait_until(
                    lambda: sum(1 for w in coord.workers.values() if w.live)
                    == 2,
                    timeout=30,
                )
                job_ids = [await svc.submit(net) for net in nets]
                for net, job_id in zip(nets, job_ids):
                    job = await svc.result(job_id, timeout=240)
                    assert job.state == "done", job.error
                    rows[net.name] = job.result.row()
                stats = await svc.stats()
                assert stats["backend"]["kind"] == "fleet"
                assert stats["backend"]["registered"] == 2
                for w in workers:
                    w.drain()
                await asyncio.wait_for(asyncio.gather(*tasks), 60)
            return rows

        local = run(local_rows())
        fleet = run(fleet_rows())
        assert json.dumps(local, sort_keys=True) == json.dumps(
            fleet, sort_keys=True
        )


class FleetServerFixture:
    """A live fleet-backed HTTP stack (coordinator + 2 real workers) in
    a background thread — the distributed twin of ServerFixture in
    test_serve_http.py."""

    def __init__(self, tmp_path):
        self._started = threading.Event()
        self._loop = None
        self._stop = None
        self.base = None
        self._thread = threading.Thread(target=self._run,
                                        args=(tmp_path,), daemon=True)
        self._thread.start()
        assert self._started.wait(timeout=60), "fleet stack did not come up"

    def _run(self, tmp_path):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            coord = Coordinator(port=0, heartbeat_interval_s=0.2)
            service = Service(
                FAST, backend=FleetBackend(coord, max_inflight=8),
                queue_size=8,
            )
            workers = []
            tasks = []

            def ready(frontend):
                self.base = f"http://127.0.0.1:{frontend.port}"

            async def boot():
                # the coordinator only binds (resolving port 0) once
                # serve_forever starts the service's backend
                await wait_until(lambda: coord.state == "running",
                                 timeout=30)
                for n in range(2):
                    w = Worker("127.0.0.1", coord.port, slots=1,
                               worker_id=f"http-{n}",
                               store=ArtifactStore(tmp_path / f"w{n}"))
                    workers.append(w)
                    tasks.append(asyncio.create_task(w.run()))
                await wait_until(
                    lambda: sum(1 for w in coord.workers.values() if w.live)
                    == 2,
                    timeout=30,
                )
                self._started.set()

            boot_task = asyncio.create_task(boot())
            await serve_forever(service, port=0, ready=ready,
                                stop=self._stop)
            await boot_task
            for w in workers:
                w.drain()
            await asyncio.gather(*tasks)

        asyncio.run(main())

    def close(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=120)
        assert not self._thread.is_alive(), "fleet stack did not exit"

    def request(self, method, path, body=None):
        import urllib.error
        import urllib.request

        data = json.dumps(body).encode("utf-8") if body is not None else None
        req = urllib.request.Request(self.base + path, data=data,
                                     method=method)
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def poll(self, job_id, timeout=240):
        import time

        deadline = time.time() + timeout
        while time.time() < deadline:
            status, snap = self.request("GET", f"/jobs/{job_id}")
            assert status == 200
            if snap["state"] in ("done", "failed", "cancelled"):
                return snap
            time.sleep(0.1)
        raise AssertionError(f"job {job_id} never finished")


@pytest.fixture(scope="class")
def fleet_server(tmp_path_factory):
    fixture = FleetServerFixture(tmp_path_factory.mktemp("fleet-http"))
    yield fixture
    fixture.close()


class TestFleetHttp:
    def test_healthz_reports_fleet(self, fleet_server):
        status, health = fleet_server.request("GET", "/healthz")
        assert status == 200
        backend = health["backend"]
        assert backend["kind"] == "fleet"
        assert backend["registered"] == 2
        assert backend["workers"]["idle"] + backend["workers"]["busy"] == 2
        assert set(backend["affinity"]) == {"hits", "misses", "hit_rate"}
        assert "queue_depth" in health
        assert len(backend["workers_detail"]) == 2
        assert all("pid" in w for w in backend["workers_detail"])

    def test_http_submit_runs_on_fleet(self, fleet_server):
        from repro.network.blif import write_blif

        blif = write_blif(tiny_network("fleethttp", 41))
        status, snap = fleet_server.request("POST", "/jobs", {"blif": blif})
        assert status == 202
        done = fleet_server.poll(snap["job_id"])
        assert done["state"] == "done", done.get("error")
        assert done["row"]["ckt"] == "fleethttp"

    def test_repeat_fingerprint_scores_affinity_hit(self, fleet_server):
        from repro.network.blif import write_blif

        blif = write_blif(tiny_network("fleetwarm", 43))
        for _ in range(2):
            status, snap = fleet_server.request("POST", "/jobs",
                                                {"blif": blif,
                                                 "config": {"n_vectors": 128}})
            assert status in (200, 202)
            if status == 202:
                fleet_server.poll(snap["job_id"])
        _, health = fleet_server.request("GET", "/healthz")
        affinity = health["backend"]["affinity"]
        assert affinity["hits"] + affinity["misses"] >= 1

"""HTTP round-trip tests for the serve front-end: a real server on an
ephemeral port, driven with urllib from the test thread — submit, poll,
stream events, cancel, warm-store repeat, and the error status codes."""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.bench.generators import GeneratorConfig, random_control_network
from repro.core.config import FlowConfig
from repro.network.blif import write_blif
from repro.serve import Service, serve_forever
from repro.store import ArtifactStore

FAST = FlowConfig(n_vectors=256)
TERMINAL = ("done", "failed", "cancelled")


def tiny_network(name="tiny", seed=3):
    cfg = GeneratorConfig(n_inputs=10, n_outputs=4, n_gates=28, seed=seed)
    return random_control_network(name, cfg)


class ServerFixture:
    """A live serve stack in a background thread with its own loop."""

    def __init__(self, tmp_path):
        self.store = ArtifactStore(tmp_path / "store")
        self._started = threading.Event()
        self._loop = None
        self._stop = None
        self.base = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(timeout=30), "server did not come up"

    def _run(self):
        async def main():
            service = Service(FAST, jobs=2, queue_size=8, store=self.store)
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()

            def ready(frontend):
                self.base = f"http://127.0.0.1:{frontend.port}"
                self._started.set()

            await serve_forever(service, port=0, ready=ready, stop=self._stop)

        asyncio.run(main())

    def close(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "server thread did not exit"

    # ------------------------------------------------------------------

    def request(self, method, path, body=None):
        """(status, decoded JSON) for one request; HTTP errors included."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        req = urllib.request.Request(self.base + path, data=data, method=method)
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
            if snap["state"] in TERMINAL:
                return snap
            time.sleep(0.1)
        raise AssertionError(f"job {job_id} never finished")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    fixture = ServerFixture(tmp_path_factory.mktemp("serve-http"))
    yield fixture
    fixture.close()


class TestEndpoints:
    def test_healthz(self, server):
        status, health = server.request("GET", "/healthz")
        assert status == 200
        assert health["state"] == "running"
        assert health["workers"] == 2 and health["queue_size"] == 8
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled",
        }

    def test_submit_poll_roundtrip_inline_blif(self, server):
        blif = write_blif(tiny_network("httpjob", 11))
        status, snap = server.request("POST", "/jobs", {"blif": blif})
        assert status == 202
        assert snap["state"] == "queued" and snap["job_id"].startswith("job-")
        done = server.poll(snap["job_id"])
        assert done["state"] == "done" and not done["cached"]
        assert done["row"]["ckt"] == "httpjob"
        assert done["runtime_s"] > 0

    def test_repeat_submission_served_from_store(self, server):
        blif = write_blif(tiny_network("warmjob", 13))
        status, cold = server.request("POST", "/jobs", {"blif": blif})
        assert status == 202
        cold_done = server.poll(cold["job_id"])
        status, warm = server.request("POST", "/jobs", {"blif": blif})
        # instant hit: answered 200 already-done, no queue slot used
        assert status == 200
        assert warm["state"] == "done" and warm["cached"]
        assert warm["started_at"] is None
        assert warm["row"] == cold_done["row"]

    def test_events_stream_ndjson_until_terminal(self, server):
        blif = write_blif(tiny_network("streamjob", 17))
        _, snap = server.request("POST", "/jobs", {"blif": blif})
        events = []
        with urllib.request.urlopen(
            server.base + f"/jobs/{snap['job_id']}/events", timeout=240
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            for line in resp:
                events.append(json.loads(line))
        assert [e["state"] for e in events] == ["queued", "running", "done"]
        assert [e["seq"] for e in events] == [0, 1, 2]

    def test_cancel_with_delete(self, server):
        blif = write_blif(tiny_network("can1", 19))
        _, snap = server.request("POST", "/jobs", {"blif": blif})
        status, body = server.request("DELETE", f"/jobs/{snap['job_id']}")
        assert status == 200
        assert body["job_id"] == snap["job_id"]
        assert isinstance(body["cancelled"], bool)
        final = server.poll(snap["job_id"])
        assert (final["state"] == "cancelled") == body["cancelled"]

    def test_jobs_listing(self, server):
        blif = write_blif(tiny_network("listed", 23))
        _, snap = server.request("POST", "/jobs", {"blif": blif})
        server.poll(snap["job_id"])
        status, body = server.request("GET", "/jobs")
        assert status == 200
        assert snap["job_id"] in {j["job_id"] for j in body["jobs"]}

    def test_config_knob_reaches_the_flow(self, server):
        blif = write_blif(tiny_network("cfgjob", 29))
        _, snap = server.request(
            "POST", "/jobs", {"blif": blif, "config": {"n_vectors": 128}}
        )
        assert server.poll(snap["job_id"])["state"] == "done"


class TestErrorCodes:
    def test_unknown_job_is_404(self, server):
        status, body = server.request("GET", "/jobs/job-9999")
        assert status == 404 and "unknown job" in body["error"]
        status, _ = server.request("GET", "/jobs/job-9999/events")
        assert status == 404

    def test_no_circuit_source_is_400(self, server):
        status, body = server.request("POST", "/jobs", {})
        assert status == 400 and "exactly one" in body["error"]

    def test_two_circuit_sources_is_400(self, server):
        status, _ = server.request(
            "POST", "/jobs", {"blif": ".model x", "spec": "frg1"}
        )
        assert status == 400

    def test_unknown_spec_is_400(self, server):
        status, body = server.request("POST", "/jobs", {"spec": "not-a-circuit"})
        assert status == 400 and "not-a-circuit" in body["error"]

    def test_malformed_blif_is_400(self, server):
        status, body = server.request("POST", "/jobs", {"blif": "garbage here"})
        assert status == 400 and "unexpected token" in body["error"]

    def test_bad_config_is_400(self, server):
        blif = write_blif(tiny_network())
        status, body = server.request(
            "POST", "/jobs", {"blif": blif, "config": {"n_vectors": -1}}
        )
        assert status == 400 and "n_vectors" in body["error"]

    def test_unknown_optimizer_strategy_is_400(self, server):
        blif = write_blif(tiny_network())
        status, body = server.request(
            "POST", "/jobs", {"blif": blif, "config": {"optimizer": "bogus"}}
        )
        assert status == 400
        assert "unknown optimizer strategy 'bogus'" in body["error"]

    def test_unknown_optimizer_param_is_400(self, server):
        blif = write_blif(tiny_network())
        status, body = server.request(
            "POST",
            "/jobs",
            {"blif": blif, "config": {"optimizer_params": {"stale_knob": 1}}},
        )
        assert status == 400 and "stale_knob" in body["error"]

    def test_invalid_json_body_is_400(self, server):
        req = urllib.request.Request(
            server.base + "/jobs", data=b"not json{", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400

    def test_unroutable_path_is_404(self, server):
        status, _ = server.request("GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, _ = server.request("PUT", "/jobs")
        assert status == 405


class TestHeaderHardening:
    def _raw_request(self, server, payload: bytes):
        """Send raw bytes on a fresh socket; returns the status line."""
        import socket

        host, port = server.base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            data = sock.recv(4096)
        return data.split(b"\r\n", 1)[0].decode("latin-1", "replace")

    def test_garbage_content_length_is_400(self, server):
        status_line = self._raw_request(
            server,
            b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        )
        assert " 400 " in status_line

    def test_negative_content_length_is_400(self, server):
        status_line = self._raw_request(
            server,
            b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        )
        assert " 400 " in status_line

    def test_non_numeric_timeout_is_400(self, server):
        status, body = server.request(
            "POST", "/jobs", {"spec": "frg1", "timeout_s": "abc"}
        )
        assert status == 400 and "timeout_s" in body["error"]

    def test_zero_timeout_is_400(self, server):
        status, body = server.request(
            "POST", "/jobs", {"spec": "frg1", "timeout_s": 0}
        )
        assert status == 400 and "timeout_s" in body["error"]
        for unarmable in ("nan", "inf"):
            status, body = server.request(
                "POST", "/jobs", {"spec": "frg1", "timeout_s": unarmable}
            )
            assert status == 400 and "timeout_s" in body["error"]


class TestEventsDisconnect:
    """Regression: a client dropping the NDJSON events stream used to
    raise BrokenPipeError/ConnectionResetError out of the stream
    handler (into the generic 500 path, which then wrote a second
    response into the dead socket).  Disconnects must end the stream
    quietly and leave the server fully healthy."""

    class _DyingWriter:
        """StreamWriter stand-in whose pipe breaks after the headers."""

        def __init__(self, fail_after: int = 1):
            self.drains = 0
            self.fail_after = fail_after

        def write(self, data: bytes) -> None:
            pass

        async def drain(self) -> None:
            self.drains += 1
            if self.drains > self.fail_after:
                raise BrokenPipeError("client went away")

    def test_midstream_disconnect_is_swallowed(self):
        async def body():
            service = Service(FAST, jobs=1, queue_size=4)
            async with service:
                from repro.serve import HttpFrontend

                frontend = HttpFrontend(service)
                job_id = await service.submit(tiny_network("dying", 31))
                await service.result(job_id, timeout=240)
                writer = self._DyingWriter(fail_after=1)
                # must return cleanly — not raise into the 500 handler
                await frontend._stream_events(job_id, writer)
                assert writer.drains >= 2  # headers + at least one event

        asyncio.run(body())

    def test_live_disconnect_keeps_the_server_healthy(self, server):
        import socket

        blif = write_blif(tiny_network("dropped", 37))
        _, snap = server.request("POST", "/jobs", {"blif": blif})
        host, port = server.base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                f"GET /jobs/{snap['job_id']}/events HTTP/1.1\r\n"
                "Host: x\r\n\r\n".encode("latin-1")
            )
            assert sock.recv(64)  # stream started (headers arrived)
            # drop the connection mid-stream, with events still coming
        final = server.poll(snap["job_id"])
        assert final["state"] == "done"
        # the handler absorbed the disconnect: the server still serves
        status, health = server.request("GET", "/healthz")
        assert status == 200 and health["state"] == "running"
        # and a fresh events stream still works end to end
        status, again = server.request("POST", "/jobs", {"blif": blif})
        assert status in (200, 202)

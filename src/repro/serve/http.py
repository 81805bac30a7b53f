"""Stdlib-only JSON-over-HTTP front-end for :class:`~repro.serve.Service`.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no threads, one short-lived connection per request — that
maps the service API onto four endpoints:

==============================  ========================================
``POST /jobs``                  submit a circuit; ``202`` + job record
                                (``200`` when served from the store)
``GET /jobs``                   all job snapshots
``GET /jobs/<id>``              one job snapshot (``404`` unknown)
``GET /jobs/<id>/events``       NDJSON event stream until terminal
``DELETE /jobs/<id>``           cancel; ``{"cancelled": bool}``
``GET /healthz``                service health: queue depth, job counts
                                by state, and the execution backend's
                                stats — for a fleet-backed service
                                (:mod:`repro.fleet`) that is workers by
                                state (idle/busy/quarantined/dead), per-
                                worker detail, and the affinity hit rate
==============================  ========================================

``POST /jobs`` accepts a JSON body naming the circuit one of three
ways, plus optional knobs::

    {"blif": ".model ...", "config": {...}, "timeout_s": 60}
    {"path": "designs/frg1.blif"}
    {"spec": "frg1", "name": "warm-check"}

``blif`` is inline BLIF text (parsed off-loop), ``path`` a server-side
BLIF file, ``spec`` a named benchmark recipe
(:func:`repro.bench.mcnc.spec_by_name`).  ``config`` is a
:class:`repro.FlowConfig` dict as produced by ``FlowConfig.to_dict``.

Backpressure maps to status codes: a full queue answers ``429``, a
closing service ``503`` — a load balancer can react without parsing
bodies.  The events endpoint streams one JSON object per line and
closes after the job's terminal event, so ``urllib`` /``curl`` clients
can simply read lines until EOF.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    ConfigError,
    QueueFullError,
    ReproError,
    ServeError,
    ServiceClosedError,
    UnknownJobError,
)
from repro.serve.service import Service

#: Request body cap (BLIF text included) — 32 MiB handles every MCNC
#: circuit with orders of magnitude to spare while bounding memory.
MAX_BODY_BYTES = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Internal: abort the request with this status + message."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message
        super().__init__(message)


class HttpFrontend:
    """Thin HTTP adapter over one :class:`Service` instance."""

    def __init__(
        self, service: Service, host: str = "127.0.0.1", port: int = 8080
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> "HttpFrontend":
        """Bind and start serving; ``port=0`` picks a free port (the
        bound port is written back to :attr:`port`)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # connection plumbing

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._send_json(
                    writer, exc.status, {"error": exc.message}
                )
                return
            try:
                await self._route(method, path, body, writer)
            except _HttpError as exc:
                await self._send_json(writer, exc.status, {"error": exc.message})
            except (QueueFullError,) as exc:
                await self._send_json(writer, 429, {"error": str(exc)})
            except ServiceClosedError as exc:
                await self._send_json(writer, 503, {"error": str(exc)})
            except UnknownJobError as exc:
                await self._send_json(writer, 404, {"error": str(exc)})
            except (ConfigError, ServeError, ReproError) as exc:
                await self._send_json(writer, 400, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 — keep the server up
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Optional[Dict[str, Any]]]:
        request_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body: Optional[Dict[str, Any]] = None
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length header") from None
        if length < 0:
            raise _HttpError(400, "malformed Content-Length header")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HttpError(400, f"body is not valid JSON: {exc}") from None
            if not isinstance(body, dict):
                raise _HttpError(400, "body must be a JSON object")
        return method.upper(), target.split("?", 1)[0], body

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> None:
        data = (json.dumps(payload) + "\n").encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        writer.write(data)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing

    async def _route(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, self.service.stats())
            return
        if path == "/jobs":
            if method == "POST":
                await self._post_job(body or {}, writer)
                return
            if method == "GET":
                await self._send_json(
                    writer, 200, {"jobs": self.service.jobs_snapshot()}
                )
                return
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/events") and method == "GET":
                await self._stream_events(rest[: -len("/events")].rstrip("/"), writer)
                return
            if "/" not in rest:
                if method == "GET":
                    await self._send_json(writer, 200, self.service.status(rest))
                    return
                if method == "DELETE":
                    cancelled = await self.service.cancel(rest)
                    await self._send_json(
                        writer,
                        200,
                        {"job_id": rest, "cancelled": cancelled},
                    )
                    return
                raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route for {method} {path}")

    async def _post_job(
        self, body: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        circuit = await self._circuit_from_body(body)
        config = None
        if body.get("config") is not None:
            from repro.core.config import FlowConfig

            config = FlowConfig.from_dict(body["config"])
        timeout_s = body.get("timeout_s")
        if timeout_s is not None:
            try:
                timeout_s = float(timeout_s)
            except (TypeError, ValueError):
                raise _HttpError(
                    400, f"timeout_s must be a number, got {timeout_s!r}"
                ) from None
        job_id = await self.service.submit(
            circuit, config, timeout_s=timeout_s, name=body.get("name")
        )
        snapshot = self.service.status(job_id)
        # an instant store hit answers 200 (done), a queued job 202
        await self._send_json(
            writer, 200 if snapshot["state"] == "done" else 202, snapshot
        )

    async def _circuit_from_body(self, body: Dict[str, Any]):
        sources = [k for k in ("blif", "path", "spec") if body.get(k) is not None]
        if len(sources) != 1:
            raise _HttpError(
                400, "body must name exactly one of 'blif', 'path', 'spec'"
            )
        source = sources[0]
        value = body[source]
        if not isinstance(value, str) or not value.strip():
            raise _HttpError(400, f"'{source}' must be a non-empty string")
        if source == "path":
            return value
        if source == "spec":
            from repro.bench.mcnc import spec_by_name

            try:
                return spec_by_name(value)
            except ReproError as exc:
                raise _HttpError(400, str(exc)) from None
        # inline BLIF text: parse off-loop, fail fast with a real message
        from repro.network.blif import parse_blif

        return await asyncio.get_running_loop().run_in_executor(
            None, parse_blif, value
        )

    async def _stream_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        # probe first so an unknown id is a clean 404, not a broken stream
        self.service.job(job_id)
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Cache-Control: no-store\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        # From here on the response has started: a consumer dropping the
        # connection mid-stream (Ctrl-C on a curl, a dead dashboard tab)
        # surfaces as BrokenPipeError / ConnectionResetError from the
        # writes — that is the client's normal way of unsubscribing, so
        # end the stream quietly instead of letting the error bubble up
        # into the 500 handler (which would write a second response into
        # a dead socket and log a server-side traceback for routine
        # disconnects).  The event generator is closed explicitly so its
        # condition-variable wait is torn down now, not at GC time.
        events = self.service.events(job_id)
        try:
            await writer.drain()
            async for event in events:
                writer.write((json.dumps(event) + "\n").encode("utf-8"))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-stream; nothing left to tell it
        finally:
            await events.aclose()

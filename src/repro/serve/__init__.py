"""Async serving for the synthesis flow.

Two coordinated layers:

* :class:`Service` — an in-process asyncio job queue: ``submit`` a
  circuit, get a job id back, poll :meth:`~Service.status` / await
  :meth:`~Service.result` / stream :meth:`~Service.events`; execution
  happens in a ``ProcessPoolExecutor`` so the event loop never blocks
  on synthesis, a bounded queue applies backpressure, and an attached
  :class:`repro.store.ArtifactStore` serves repeated submissions
  instantly with ``cached=True``.
* :class:`HttpFrontend` — a stdlib-only JSON-over-HTTP adapter
  (``POST /jobs``, ``GET /jobs/<id>``, ``GET /jobs/<id>/events``,
  ``GET /healthz``) exposed on the CLI as ``repro-domino serve``.

:func:`serve_forever` wires the two together with signal-driven
graceful shutdown — the CLI entry point and the shape to embed the
server elsewhere.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.serve.service import (
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    Service,
)
from repro.serve.http import HttpFrontend

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "Service",
    "HttpFrontend",
    "serve_forever",
]


async def serve_forever(
    service: Service,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    drain: bool = True,
    ready: Optional[Callable[[HttpFrontend], None]] = None,
    stop: Optional[asyncio.Event] = None,
) -> None:
    """Run ``service`` behind an :class:`HttpFrontend` until stopped.

    Starts the service (if not already running) and the HTTP listener,
    then waits on ``stop`` — an :class:`asyncio.Event` the caller can
    set, also wired to ``SIGINT``/``SIGTERM`` where the platform allows
    it.  ``ready`` is called once with the bound frontend (its ``port``
    resolves ``port=0``).  On the way out the listener closes first,
    then the service shuts down draining (or aborting, ``drain=False``)
    the queue, leaving no orphaned workers.
    """
    if service.state == "new":
        await service.start()
    frontend = HttpFrontend(service, host=host, port=port)
    await frontend.start()
    stop = stop or asyncio.Event()
    try:
        with _stop_on_signals(stop.set):
            if ready is not None:
                ready(frontend)
            await stop.wait()
    finally:
        await frontend.stop()
        try:
            await service.shutdown(drain=drain)
        except Exception as exc:  # noqa: BLE001 — shutdown must not mask stop
            print(f"service shutdown error: {exc}", file=sys.stderr)


@contextmanager
def _stop_on_signals(stop: Callable[[], None]) -> Iterator[None]:
    """Call ``stop`` on ``SIGINT``/``SIGTERM`` while the block runs.

    The handlers go on the running loop where it can take them (the
    main thread, on a platform that has them) and come off when the
    block exits."""
    loop = asyncio.get_running_loop()
    hooked = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop)
            hooked.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without signal handlers
    try:
        yield
    finally:
        for signum in hooked:
            loop.remove_signal_handler(signum)

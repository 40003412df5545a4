"""The stdlib HTTP/SSE front-end for campaign submission and streaming.

Endpoints (all JSON in the unified envelope of
:mod:`repro.experiments.schema` wherever a result object crosses the
wire):

========================================  =====================================
``GET  /v1/healthz``                      liveness + job-state counts
``GET  /v1/experiments``                  the experiment registry
``POST /v1/campaigns``                    submit a campaign document
``GET  /v1/campaigns``                    list jobs
``GET  /v1/campaigns/{id}``               job status (+ result when done)
``GET  /v1/campaigns/{id}/events``        SSE stream (lifecycle + telemetry)
========================================  =====================================

Built on ``http.server.ThreadingHTTPServer`` — one thread per
connection, which is exactly what SSE needs (each stream parks its
thread in ``EventBus.read``) and keeps the server dependency-free.
``serve()`` wires SIGINT/SIGTERM to a graceful shutdown: stop accepting
connections, drain the job pool (in-flight campaigns stay journal-
recoverable even under kill -9).

See ``docs/service.md`` for the wire contract and curl examples.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.campaign import CampaignValidationError
from repro.service.jobs import JobManager

__all__ = ["create_server", "serve"]

#: Seconds an idle SSE stream waits before emitting a heartbeat comment.
SSE_HEARTBEAT = 15.0

#: Hard cap on request bodies (a campaign document is a few KB).
MAX_BODY_BYTES = 4 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"

    # -- plumbing --------------------------------------------------------

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            sys.stderr.write(
                f"{self.address_string()} - {format % args}\n"
            )

    def _send_json(self, status: int, doc: dict) -> None:
        body = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, **extra) -> None:
        self._send_json(status, {"error": message, **extra})

    def _read_body(self) -> bytes | None:
        length = self.headers.get("Content-Length")
        if length is None:
            self._error(411, "Content-Length required")
            return None
        try:
            n = int(length)
        except ValueError:
            self._error(400, f"invalid Content-Length {length!r}")
            return None
        if n > MAX_BODY_BYTES:
            self._error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(n)

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/v1/healthz":
            return self._get_healthz()
        if path == "/v1/experiments":
            return self._get_experiments()
        if path == "/v1/campaigns":
            return self._get_campaigns()
        parts = path.split("/")
        # /v1/campaigns/{id} and /v1/campaigns/{id}/events
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "campaigns":
            job = self.manager.get(parts[3])
            if job is None:
                return self._error(404, f"no campaign job {parts[3]!r}")
            if len(parts) == 4:
                return self._send_json(200, job.describe())
            if len(parts) == 5 and parts[4] == "events":
                return self._get_events(job)
        self._error(404, f"no route for GET {path}")

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/v1/campaigns":
            return self._error(404, f"no route for POST {path}")
        body = self._read_body()
        if body is None:
            return
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as exc:
            return self._error(400, f"request body is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            return self._error(400, "campaign document must be a JSON object")
        try:
            job, created = self.manager.submit(doc)
        except CampaignValidationError as exc:
            return self._error(
                422,
                "campaign failed validation",
                issues=[i.render() for i in exc.issues],
                exit_code=exc.exit_code,
            )
        self._send_json(201 if created else 200, job.describe())

    # -- endpoints -------------------------------------------------------

    def _get_healthz(self) -> None:
        self._send_json(200, {"status": "ok", "jobs": self.manager.counts()})

    def _get_experiments(self) -> None:
        from repro.experiments.result import available

        self._send_json(200, {
            "experiments": [
                {"name": spec.name, "description": spec.description}
                for spec in available()
            ],
        })

    def _get_campaigns(self) -> None:
        self._send_json(200, {
            "jobs": [job.describe() for job in self.manager.jobs()],
        })

    def _get_events(self, job) -> None:
        """Stream the job's event bus as Server-Sent Events.

        Every client replays the full retained history from sequence 0
        — connecting late (or twice) yields the same ordered stream.
        The stream ends with a ``stream-closed`` event once the job's
        bus closes; idle gaps carry ``: heartbeat`` comments so proxies
        and clients can distinguish quiet from dead.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is unbounded: no Content-Length, so the connection closes
        # with the stream rather than being reused.
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = 0
        try:
            while True:
                frames, cursor, closed = job.events.read(
                    cursor, timeout=SSE_HEARTBEAT
                )
                if frames:
                    self.wfile.write(b"".join(frames))
                elif closed:
                    self.wfile.write(
                        b'event: stream-closed\ndata: {"event": "stream-closed"}\n\n'
                    )
                    self.wfile.flush()
                    return
                else:
                    self.wfile.write(b": heartbeat\n\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to clean up


def create_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    manager: JobManager | None = None,
    *,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Build the HTTP server (not yet serving) around a job manager.

    The manager is started if it isn't already; the caller owns both
    lifecycles (``server.shutdown()`` + ``manager.stop()``).  Port 0
    binds an ephemeral port — read ``server.server_address`` back.
    """
    if manager is None:
        manager = JobManager()
    manager.start()
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True  # SSE threads must not block shutdown
    server.manager = manager  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    state_dir: str | None = None,
    pool: int = 1,
    workers: int | None = None,
    telemetry_window: float | None = None,
    telemetry_path: str | None = None,
    verbose: bool = True,
) -> int:
    """Run the campaign service until SIGINT/SIGTERM; returns exit code.

    Shutdown is graceful: the listener stops, then the job pool drains
    (queued jobs stay spooled under ``state_dir`` and resume on the next
    start; even a kill -9 loses nothing thanks to the per-job journal).
    """
    manager = JobManager(
        state_dir,
        pool=pool,
        workers=workers,
        telemetry_window=telemetry_window,
        telemetry_path=telemetry_path,
    )
    server = create_server(host, port, manager, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    if verbose:
        sys.stderr.write(
            f"repro service listening on http://{bound_host}:{bound_port} "
            f"(state_dir={state_dir or 'none (in-memory)'}, pool={pool}, "
            f"workers={workers or 1})\n"
        )

    stop = threading.Event()

    def _signal(signum, frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if verbose:
            sys.stderr.write("repro service shutting down...\n")
        server.shutdown()
        serve_thread.join()
        server.server_close()
        manager.stop(wait=True)
        if verbose:
            sys.stderr.write("repro service stopped.\n")
    return 0

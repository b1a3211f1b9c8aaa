"""The control-plane HTTP service: stdlib transport over the API layer.

A :class:`ControlPlaneServer` is a ``ThreadingHTTPServer`` whose handler
does exactly three things: read the JSON body, call
:meth:`~repro.server.api.ControlPlaneAPI.handle`, write the JSON
response.  All routing, validation, and error mapping live in the
transport-free API layer, which is what the contract tests exercise.

The server runs happily in-process (tests start one per test on an
ephemeral port) or as a long-lived daemon via :func:`serve` (the
``repro serve`` command).  Threading matters: site agents poll while
operators submit and watch, and the load test drives hundreds of
concurrent clients — hence ``daemon_threads`` and a deep accept queue.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.server.api import ControlPlaneAPI
from repro.server.metrics import MetricsRegistry
from repro.server.store import RunStore

__all__ = ["ControlPlaneServer", "serve"]


class _Handler(BaseHTTPRequestHandler):
    """One request: JSON in, API dispatch, JSON out."""

    # Keep-alive matters under load: without HTTP/1.1 every poll pays a
    # fresh TCP handshake and the accept queue becomes the bottleneck.
    protocol_version = "HTTP/1.1"
    server: "ControlPlaneServer"

    def _dispatch(self, method: str) -> None:
        body: Optional[dict] = None
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            try:
                body = json.loads(self.rfile.read(length).decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._reply(400, {"error": "request body is not valid JSON"})
                return
            if body is not None and not isinstance(body, dict):
                self._reply(400, {"error": "request body must be a JSON object"})
                return
        status, payload = self.server.api.handle(method, self.path, body)
        self._reply(status, payload)

    def _reply(self, status: int, payload: Optional[dict]) -> None:
        blob = b"" if payload is None else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        if blob:
            self.wfile.write(blob)

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def log_message(self, format: str, *args: Any) -> None:
        # Request logging is the metrics registry's job; stderr chatter
        # would swamp the load test.
        pass


class ControlPlaneServer(ThreadingHTTPServer):
    """The run-store service, embeddable and context-managed.

    >>> with ControlPlaneServer(":memory:", port=0) as server:
    ...     client = ControlPlaneClient(server.url)
    """

    daemon_threads = True
    # The load test opens hundreds of sockets at once; the default
    # accept backlog of 5 would refuse connections under that burst.
    request_queue_size = 256

    def __init__(
        self,
        db_path: str = ":memory:",
        host: str = "127.0.0.1",
        port: int = 0,
        store: Optional[RunStore] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.store = store if store is not None else RunStore(db_path)
        # A restarted server may be inheriting state a killed predecessor
        # left mid-flight: repair it before accepting any request.
        self.swept = self.store.startup_sweep()
        self.api = ControlPlaneAPI(self.store, metrics=metrics)
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ControlPlaneServer":
        """Serve on a background thread (tests, embedded use)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="control-plane", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket; the store stays usable."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self.server_close()

    def __enter__(self) -> "ControlPlaneServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve(
    db_path: str,
    host: str = "127.0.0.1",
    port: int = 8642,
    announce: Any = None,
) -> None:
    """Run the control plane in the foreground (``repro serve``)."""
    server = ControlPlaneServer(db_path, host=host, port=port)
    if announce is not None:
        announce(server.url)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.store.close()

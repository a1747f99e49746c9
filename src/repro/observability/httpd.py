"""The live telemetry plane's HTTP endpoint: /metrics, /healthz, /status.

Until this module, every telemetry artifact was batch-shaped — written
at end-of-run by ``--metrics-out`` and friends — so a long ``serve``
run was a black box until it exited.  :class:`TelemetryServer` embeds
a zero-dependency scrape endpoint (stdlib :mod:`http.server` on a
daemon thread) beside any long-running command:

* ``GET /metrics`` — the registry as Prometheus text exposition,
  rendered by the same
  :func:`~repro.observability.exporters.render_prometheus` the export
  path uses, so a mid-run scrape and the end-of-run artifact are the
  same format and pass the same strict
  :func:`~repro.observability.exporters.parse_prometheus` validator.
* ``GET /healthz`` — liveness/readiness with proper status-code
  semantics: 200 while every shard is healthy, **503** the moment any
  shard is fenced or has an open breaker (the *health callable*
  decides; the endpoint only maps ``ok`` to the code).
* ``GET /status`` — a JSON snapshot equivalent to
  :func:`~repro.service.workers.supervisor_status`, the machine face
  of the ``serve --status-interval`` line; the ``watch`` CLI
  subcommand polls it to render its per-tenant table.

Scrapes run on server threads *concurrently with ingest*.  That is
safe by design, not by luck: the registry's read path copies family
children before iterating (:meth:`MetricFamily.children`), collectors
only sync plain source-of-truth counters, and no collector takes a
shard lock — so a scrape can observe a histogram mid-observation
(bucket counts remain cumulative by construction) but can never
deadlock or corrupt the hot path.  The binding contract is the same
as :class:`~repro.service.server.LineServer`: port 0 picks a free
port, published via :attr:`TelemetryServer.port` after ``start()``.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.common.errors import ValidationError
from repro.common.net import retry_eaddrinuse
from repro.observability.exporters import render_prometheus
from repro.observability.metrics import MetricsRegistry

#: Content type of the Prometheus text exposition (version pinned —
#: the format ``render_prometheus`` emits).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Paths the endpoint serves.
PATH_METRICS = "/metrics"
PATH_HEALTHZ = "/healthz"
PATH_STATUS = "/status"


class _TelemetryHandler(BaseHTTPRequestHandler):
    """One request: route, render, reply.  Never raises outward."""

    # Injected by TelemetryServer via the server instance.
    server_version = "repro-telemetry/1.0"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == PATH_METRICS:
                body = render_prometheus(self.server.registry).encode("utf-8")
                self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
            elif path == PATH_HEALTHZ:
                health = self.server.health_callable()
                code = 200 if health.get("ok", False) else 503
                self._reply_json(code, health)
            elif path == PATH_STATUS:
                self._reply_json(200, self.server.status_callable())
            else:
                self._reply_json(
                    404,
                    {
                        "error": f"unknown path {path!r}",
                        "paths": [PATH_METRICS, PATH_HEALTHZ, PATH_STATUS],
                    },
                )
        except Exception as error:  # noqa: BLE001 - keep the endpoint alive
            # A scrape must never take the service down; surface the
            # failure to the scraper and keep serving.
            try:
                self._reply_json(
                    500, {"error": f"{type(error).__name__}: {error}"}
                )
            except OSError:  # pragma: no cover - peer already gone
                pass

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._reply(code, "application/json; charset=utf-8", body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter (scrapes are frequent)."""


class TelemetryServer:
    """Embedded scrape endpoint over one :class:`MetricsRegistry`.

    Args:
        registry: the registry ``/metrics`` renders.
        host / port: bind address; port 0 picks a free port,
            published via :attr:`port` after :meth:`start`.
        status: zero-argument callable returning the JSON-ready dict
            ``/status`` serves (default: empty dict).
        health: zero-argument callable returning a JSON-ready dict
            with at least ``{"ok": bool}``; ``ok`` False maps to 503
            (default: always ok — a bare stream has no shards to
            fence).

    The server runs ``serve_forever`` on a daemon thread
    (:class:`ThreadingHTTPServer`, one thread per request), so a slow
    scraper never stalls ingest and process exit never hangs on it.
    Usable as a context manager.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        status: Callable[[], dict] | None = None,
        health: Callable[[], dict] | None = None,
        bind_retries: int = 5,
        sleep=None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.bind_retries = bind_retries
        self._sleep = sleep or time.sleep
        self._status = status or (lambda: {})
        self._health = health or (lambda: {"ok": True})
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._httpd is not None:
            raise ValidationError("telemetry server already started")
        # A rapid serve restart can race the previous life's lingering
        # socket; absorb the EADDRINUSE window instead of dying on it.
        httpd = retry_eaddrinuse(
            lambda: ThreadingHTTPServer(
                (self.host, self.port), _TelemetryHandler
            ),
            retries=self.bind_retries,
            sleep=self._sleep,
        )
        httpd.daemon_threads = True
        # The handler reaches these through its ``server`` attribute.
        httpd.registry = self.registry
        httpd.status_callable = self._status
        httpd.health_callable = self._health
        self.port = httpd.server_address[1]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"telemetry-httpd-{self.port}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""Live telemetry scrape endpoint: a stdlib HTTP thread, no dependencies.

:class:`TelemetryServer` serves the process's telemetry *while it runs*,
instead of the dump-at-exit model of
:func:`repro.observability.export.write_metrics`:

* ``GET /metrics`` — the :class:`~repro.observability.metrics.MetricsRegistry`
  in Prometheus text exposition format;
* ``GET /health`` — a JSON health document from the host's ``health_fn``
  (for :class:`~repro.serving.RankingService`: degradation-ladder state,
  breaker detail, staleness, read-latency p50/p99), stamped with the
  tracer's ``run_id`` when one is attached;
* ``GET /trace`` — recent spans of the attached tracer as Chrome
  trace-event JSON (load it in ``chrome://tracing`` / Perfetto);
* ``GET /events?limit=N`` — the newest ``N`` events of the attached
  tracer (all of its ring without ``limit``; ``N`` must be a
  non-negative integer, anything else answers 400).

The server is a :class:`~http.server.ThreadingHTTPServer` on a daemon
thread: scrapes run concurrently with each other and with the host's
work, and a hung scraper cannot block the process.  Handlers only ever
*read* snapshots (the registry and the tracer are internally locked), so
scraping is safe in every serving degradation state.

Bind with ``port=0`` (the default) to let the OS pick a free port; the
bound address is available as :attr:`TelemetryServer.address` after
:meth:`start`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlparse

from ..errors import ObservabilityError
from ..logging_utils import get_logger
from .export import to_chrome_trace
from .metrics import MetricsRegistry, get_registry
from .tracing import Tracer, _json_default

__all__ = ["TelemetryServer"]

_logger = get_logger(__name__)

_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class TelemetryServer:
    """Serve ``/metrics``, ``/health``, ``/trace``, ``/events`` over HTTP.

    Parameters
    ----------
    registry:
        Metrics registry to expose (the process-global one by default).
    health_fn:
        Zero-argument callable returning a JSON-ready health dict; when
        omitted ``/health`` reports ``{"ready": true}``.
    tracer:
        Tracer whose recent spans ``/trace`` exports, whose events
        ``/events`` serves and whose ``run_id`` stamps ``/health``;
        omitted ⇒ an empty trace and no events.
    host, port:
        Bind address; ``port=0`` picks a free port.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        health_fn: Callable[[], dict] | None = None,
        tracer: Tracer | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.health_fn = health_fn
        self.tracer = tracer
        self._host = host
        self._port = int(port)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Payload builders (shared by the HTTP handler and direct callers)
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The Prometheus exposition payload."""
        return (self.registry or get_registry()).to_prometheus()

    def health_payload(self) -> dict:
        """The ``/health`` JSON document."""
        payload = dict(self.health_fn()) if self.health_fn is not None else {
            "ready": True
        }
        if self.tracer is not None:
            payload.setdefault("run_id", self.tracer.run_id)
            payload.setdefault("events_emitted", self.tracer.events_emitted)
        return payload

    def trace_payload(self) -> dict:
        """The ``/trace`` Chrome trace-event document."""
        if self.tracer is None:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        return to_chrome_trace(self.tracer)

    def events_payload(self, limit: int | None = None) -> list[dict]:
        """The ``/events`` tail (empty without an attached tracer)."""
        if self.tracer is None:
            return []
        return self.tracer.events(limit=limit)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port resolved after start)."""
        with self._lock:
            if self._server is not None:
                return self._server.server_address[:2]
        return (self._host, self._port)

    def url(self, path: str = "/metrics") -> str:
        """Full URL of one endpoint on the bound address."""
        host, port = self.address
        if not path.startswith("/"):
            path = "/" + path
        return f"http://{host}:{port}{path}"

    def start(self) -> "TelemetryServer":
        """Bind and start serving on a daemon thread (idempotent)."""
        with self._lock:
            if self._server is not None:
                return self
            endpoint = self

            class _Handler(BaseHTTPRequestHandler):
                # One handler class per server instance: the closure is the
                # only state shared with the host, and it is read-only.
                def log_message(self, *args: object) -> None:  # noqa: D102
                    pass

                def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                    try:
                        parsed = urlparse(self.path)
                        route = parsed.path.rstrip("/") or "/"
                        if route == "/metrics":
                            body = endpoint.metrics_text().encode("utf-8")
                            content_type = _PROMETHEUS_CONTENT_TYPE
                        elif route == "/health":
                            body = _json_bytes(endpoint.health_payload())
                            content_type = "application/json"
                        elif route == "/trace":
                            body = _json_bytes(endpoint.trace_payload())
                            content_type = "application/json"
                        elif route == "/events":
                            try:
                                limit = _parse_limit(parsed.query)
                            except ValueError as exc:
                                self.send_error(400, str(exc))
                                return
                            body = _json_bytes(endpoint.events_payload(limit))
                            content_type = "application/json"
                        else:
                            self.send_error(404, "unknown endpoint")
                            return
                    except Exception as exc:  # noqa: BLE001 - scrape must not kill serving
                        _logger.exception("telemetry endpoint %s failed", self.path)
                        self.send_error(500, f"{type(exc).__name__}: {exc}")
                        return
                    self.send_response(200)
                    self.send_header("Content-Type", content_type)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)

            try:
                server = ThreadingHTTPServer((self._host, self._port), _Handler)
            except OSError as exc:
                raise ObservabilityError(
                    f"cannot bind telemetry endpoint on "
                    f"{self._host}:{self._port}: {exc}"
                ) from exc
            server.daemon_threads = True
            thread = threading.Thread(
                target=server.serve_forever,
                name="repro-telemetry-endpoint",
                daemon=True,
            )
            self._server = server
            self._thread = thread
            thread.start()
            _logger.info(
                "telemetry endpoint listening on http://%s:%d",
                *server.server_address[:2],
            )
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        with self._lock:
            server = self._server
            thread = self._thread
            self._server = None
            self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=10)

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _parse_limit(query: str) -> int | None:
    """The ``/events`` ``limit`` (``None`` when absent); rejects non-integers."""
    values = parse_qs(query, keep_blank_values=True).get("limit")
    if values is None:
        return None
    text = values[0]
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"limit must be a non-negative integer, got {text!r}")
    return int(text)


def _json_bytes(payload: object) -> bytes:
    return json.dumps(payload, default=_json_default).encode("utf-8")

"""Live metrics endpoint: scrape a sweep while it runs.

A :class:`MetricsPublisher` is the thread-safe mailbox between a running
sweep (``repro bench run --serve`` / ``repro chaos --serve``) and HTTP
scrapers: the runner publishes incremental snapshots — a metrics
exposition and ``live.*`` progress — and a :class:`LiveMetricsServer`
(stdlib ``ThreadingHTTPServer``, no dependencies) serves the merged view:

* ``GET /metrics`` — OpenMetrics text (the PR 5 exposition plus the
  ``live.*`` families), always validator-clean;
* ``GET /metrics.json`` — the raw snapshot plus run metadata;
* ``GET /healthz`` — liveness probe.

The server binds ``127.0.0.1`` (port 0 = pick a free one) and runs in a
daemon thread, so a crashed sweep never leaves an orphan listener.  The
publisher is lock-protected and copies on read; the sweep's hot path
only ever pays one dict update per published snapshot.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Optional

from .metrics import MetricsRegistry
from .openmetrics import render_openmetrics

__all__ = ["MetricsPublisher", "LiveMetricsServer", "OPENMETRICS_CONTENT_TYPE"]

#: the content type Prometheus expects for OpenMetrics 1.0 expositions.
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


class MetricsPublisher:
    """Thread-safe holder of the latest snapshot a sweep published."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._base: dict[str, Any] = {}
        self._live = MetricsRegistry()
        self._updates = self._live.counter("live.updates")
        self._meta: dict[str, Any] = {}

    # -- publishing (called from the sweep) --------------------------------
    def publish_metrics(self, snapshot: Mapping[str, Any]) -> None:
        """Replace the base exposition (a registry snapshot dict)."""
        if hasattr(snapshot, "snapshot"):
            snapshot = snapshot.snapshot()  # type: ignore[union-attr]
        with self._lock:
            self._base = dict(snapshot)
            self._updates.add()

    def publish_progress(self, kind: str, done: int, total: int) -> None:
        """Update the ``live.progress``/``live.total`` gauges of ``kind``."""
        with self._lock:
            self._live.gauge("live.progress", kind=kind).set(done)
            self._live.gauge("live.total", kind=kind).set(total)
            self._updates.add()

    def set_meta(self, **meta: Any) -> None:
        """Attach run metadata served on ``/metrics.json`` (merged)."""
        with self._lock:
            self._meta.update(meta)

    # -- scraping (called from handler threads) ----------------------------
    def snapshot(self) -> dict[str, Any]:
        """The merged base + live snapshot (a fresh copy)."""
        with self._lock:
            merged = dict(self._base)
            merged.update(self._live.snapshot())
            return merged

    def meta(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._meta)

    @property
    def updates(self) -> float:
        return self._updates.value


class _Handler(BaseHTTPRequestHandler):
    publisher: MetricsPublisher  # set on the subclass by LiveMetricsServer

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_openmetrics(self.publisher.snapshot()).encode()
            self._reply(200, OPENMETRICS_CONTENT_TYPE, body)
        elif path == "/metrics.json":
            payload = {
                "meta": self.publisher.meta(),
                "metrics": self.publisher.snapshot(),
            }
            body = (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()
            self._reply(200, "application/json; charset=utf-8", body)
        elif path == "/healthz":
            self._reply(200, "text/plain; charset=utf-8", b"ok\n")
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def do_HEAD(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Same status/headers as GET, body suppressed (probes/load
        balancers check ``HEAD /healthz`` and ``HEAD /metrics``)."""
        self._head_only = True
        try:
            self.do_GET()
        finally:
            self._head_only = False

    _head_only = False

    def _reply(self, status: int, ctype: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if not self._head_only:
            self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # scrapers poll; stay quiet on the sweep's terminal


class LiveMetricsServer:
    """A stdlib HTTP server exposing one publisher; use as a context
    manager or via explicit :meth:`start` / :meth:`stop`.

    >>> pub = MetricsPublisher()
    >>> with LiveMetricsServer(pub) as srv:   # doctest: +SKIP
    ...     print(srv.url)                    # http://127.0.0.1:<port>
    """

    def __init__(
        self,
        publisher: Optional[MetricsPublisher] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.publisher = publisher if publisher is not None else MetricsPublisher()
        handler = type("BoundHandler", (_Handler,), {"publisher": self.publisher})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LiveMetricsServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-live-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "LiveMetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

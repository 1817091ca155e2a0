"""Stdlib HTTP front door over a :class:`~repro.shard.coordinator.ShardCoordinator`.

``repro serve`` starts one of these.  Four routes, all JSON unless
noted:

``POST /query``
    Body: a JSON :class:`~repro.core.api.QueryRequest` (see
    :func:`~repro.shard.protocol.request_from_json` for the accepted
    fields; shard workers decode the requests they receive with the same
    function).  Response: the materialized
    :class:`~repro.core.api.QueryResponse` rendered by
    :func:`~repro.shard.protocol.response_to_json` — results, scalar
    value, completeness, stats, cache/layout provenance.  400 for malformed bodies (or a
    ``Content-Length`` that is not a non-negative integer), 413 for a
    body over :data:`MAX_BODY_BYTES`, 404 for unknown nodes.  Pass
    ``"explain": true`` to additionally get the static plan stamped
    under ``"plan"``.
``POST /explain``
    Same request body as ``/query`` but nothing is evaluated: the
    routed shard lists the meta documents the request can probe and the
    response is the :class:`~repro.core.planner.QueryPlan` rendered by
    its ``to_dict`` (see ``docs/PLANNING.md``).  404 for unknown nodes,
    503 when no healthy shard can plan.
``GET /health``
    Per-shard liveness (the coordinator pings every worker), overall
    healthy/total counts, and the planned generation.  Status 200 while
    at least one shard answers, 503 when none do.
``GET /metrics``
    The coordinator's ``flix_shard_*`` registry in Prometheus text
    format (``?format=json`` for the JSON rendering).

The server is ``ThreadingHTTPServer`` — one thread per in-flight
request, matching the coordinator's thread-safe client pools.  It is a
*front door*, not a hardened proxy: deploy it behind whatever real
ingress the environment provides.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import urlparse, parse_qs

from repro.shard.coordinator import ShardCoordinator
from repro.shard.protocol import request_from_json, response_to_json


#: largest request body the front door reads (a JSON ``QueryRequest`` is
#: a few hundred bytes)
MAX_BODY_BYTES = 1 << 20


class _FrontDoorHandler(BaseHTTPRequestHandler):
    server_version = "FlixFrontDoor/1.0"
    protocol_version = "HTTP/1.1"

    # the FrontDoor instance is attached to the server object
    @property
    def _door(self) -> "FrontDoor":
        return self.server.front_door  # type: ignore[attr-defined]

    def log_message(self, *args) -> None:  # quiet by default
        pass

    def _send_json(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        with self._door._track():
            self._handle_get()

    def _handle_get(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/health":
            health = self._door.coordinator.health()
            status = 200 if health["healthy"] > 0 else 503
            self._send_json(status, health)
            return
        if parsed.path == "/metrics":
            fmt = parse_qs(parsed.query).get("format", ["prom"])[0]
            text = self._door.coordinator.metrics_text(fmt)
            content_type = (
                "application/json" if fmt == "json"
                else "text/plain; version=0.0.4"
            )
            self._send_text(200, text, content_type)
            return
        self._send_json(404, {"error": f"no route {parsed.path}"})

    def do_POST(self) -> None:
        with self._door._track():
            self._handle_post()

    def _handle_post(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path not in ("/query", "/explain"):
            self._send_json(404, {"error": f"no route {parsed.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # rejected before reading: rfile.read(-1) would block until
            # the client hangs up, and the unread body makes the
            # connection unusable for a next request
            self.close_connection = True
            if length < 0:
                self._send_json(400, {"error": "invalid Content-Length"})
            else:
                self._send_json(
                    413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
                )
            return
        try:
            raw = self.rfile.read(length)
            payload = json.loads(raw) if raw else {}
            request = request_from_json(payload)
        except (ValueError, RecursionError) as exc:
            # RecursionError: JSON nested deeper than the decoder recurses
            self._send_json(400, {"error": str(exc)})
            return
        if parsed.path == "/explain":
            try:
                plan = self._door.coordinator.explain(request)
            except KeyError as exc:
                self._send_json(404, {"error": str(exc).strip("'\"")})
                return
            if plan is None:
                self._send_json(503, {"error": "no healthy shard to plan on"})
                return
            self._send_json(200, plan.to_dict())
            return
        try:
            response = self._door.coordinator.query(request)
        except KeyError as exc:
            self._send_json(404, {"error": str(exc).strip("'\"")})
            return
        self._send_json(200, response_to_json(response))


class FrontDoor:
    """The HTTP surface of a sharded deployment (see module docstring)."""

    def __init__(
        self,
        coordinator: ShardCoordinator,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.coordinator = coordinator
        self._server = ThreadingHTTPServer((host, port), _FrontDoorHandler)
        self._server.front_door = self  # type: ignore[attr-defined]
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        # in-flight request accounting for the SIGTERM drain (handler
        # threads are daemons, so server_close() does not join them)
        self._inflight = 0
        self._idle = threading.Condition()

    @contextlib.contextmanager
    def _track(self):
        with self._idle:
            self._inflight += 1
        try:
            yield
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> Tuple[str, int]:
        """Serve in a background thread; returns the bound address."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="flix-front-door",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` CLI path)."""
        self._server.serve_forever()

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful SIGTERM path: stop accepting, finish in-flight
        requests, release ``serve_forever``.

        ``shutdown()`` stops the accept loop while requests already
        being handled keep running; we then wait for the in-flight
        count to reach zero (every such request gets its response out)
        before closing the listener.  Idle keep-alive connections are
        simply dropped.  Must not be called from a handler thread or
        the ``serve_forever`` thread itself — the CLI's SIGTERM handler
        runs it on a fresh thread.
        """
        if self._closed:
            return
        self._server.shutdown()
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "FrontDoor",
    "request_from_json",
    "response_to_json",
]

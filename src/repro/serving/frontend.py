"""The one asyncio HTTP front end, for the sharded pool and the demo alike.

One event loop accepts every connection and dispatches each request
through one ``(method, path)`` route table to a *backend*.  Backend
calls run in the loop's default executor, so a slow query never
stalls the accept loop or other requests.  A backend offers five
calls, which :class:`~repro.serving.shard.ShardRouter` (``repro
serve``) and :class:`~repro.demo.webapp.DemoServer` (``repro demo``)
both provide:

``route(body, city=None)``
    ``POST /api/route``.  Body: the flat versioned RouteRequest JSON,
    parsed once by :meth:`~repro.serving.query.RouteRequest.from_json`.
    The answer is the ``RouteResponse`` JSON plus ``city`` and (with
    live traffic) ``epoch``.  ``?city=<name>`` pins a shard.
``metrics_payload()`` / ``prometheus_payload()``
    ``GET /metrics`` as JSON; ``Accept: text/plain`` (or
    ``openmetrics``) and ``GET /metrics/prometheus`` give the
    Prometheus text exposition.
``healthz_payload()``
    ``GET /healthz``: 503 while the payload lists ``degraded_shards``
    (a city that cannot serve), 200 otherwise, including an in-process
    service that is degraded but still serving.
``count_bad_request()``
    Called once per 400 reply, so malformed traffic shows in
    ``/metrics`` as ``http.bad_request``.

A backend may add endpoints through ``http_routes()``, a mapping of
``(method, path)`` to handlers taking a :class:`Request`; the demo adds
its page, ``/api/network``, ``/api/feedback``, ``/api/stats``,
``/api/table``, ``/api/isochrone``, ``/trace`` and ``/debug/profile``.

Typed errors map onto status codes in one place: 400 for bad queries,
503 + ``Retry-After`` while a shard is degraded or the service sheds
load, 502 when a worker died mid-request, and a logged 500 for
anything else.  The HTTP layer is deliberately tiny (request line,
headers and a content-length body over asyncio streams); it exists so
serving needs no web framework, not to be a general server.
"""

from __future__ import annotations

import asyncio
import json
import logging
from dataclasses import dataclass
from http import HTTPStatus
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import (
    QueryError,
    ServiceOverloadedError,
    ShardCrashedError,
    ShardError,
    ShardUnavailableError,
    StorageError,
)
from repro.observability.prometheus import PROMETHEUS_CONTENT_TYPE

logger = logging.getLogger("repro.serving.frontend")

#: Largest request body accepted (a route request is ~200 bytes).
MAX_BODY_BYTES = 1 << 20

_JSON = "application/json"


@dataclass(frozen=True)
class Request:
    """What a handler sees of one HTTP request."""

    query: Mapping[str, List[str]]
    headers: Mapping[str, str]
    body: bytes = b""

    def param(
        self, name: str, default: Optional[str] = None
    ) -> Optional[str]:
        """The first value of query parameter ``name``."""
        values = self.query.get(name)
        return values[0] if values else default

    def json(self) -> Dict:
        """The body as a JSON object; :class:`QueryError` (400) otherwise."""
        try:
            payload = json.loads(self.body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            raise QueryError(
                f"request body is not valid JSON: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise QueryError("request body must be a JSON object")
        return payload


class Reply(NamedTuple):
    """One response: a JSON-able payload or a text body."""

    status: int
    body: object
    content_type: str = _JSON


Handler = Callable[[Request], object]


def _error_reply(exc: Exception) -> Reply:
    """The status code and JSON body for an exception a handler raised."""
    body: Dict = {"error": str(exc), "type": type(exc).__name__}
    if isinstance(exc, ShardError):
        body["city"] = exc.city
    if isinstance(exc, (ShardUnavailableError, ServiceOverloadedError)):
        body["retry_after_s"] = exc.retry_after_s
        return Reply(503, body)
    if isinstance(exc, ShardCrashedError):
        return Reply(502, body)
    if isinstance(exc, (QueryError, StorageError)):
        return Reply(400, body)
    logger.error("handler failed", exc_info=exc)
    return Reply(500, body)


class ShardFrontend:
    """Serve a backend (a :class:`ShardRouter` or the demo) over HTTP."""

    def __init__(self, router) -> None:
        self.router = router
        self._routes: Dict[Tuple[str, str], Handler] = {
            ("POST", "/api/route"): self._route,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/metrics/prometheus"): self._prometheus,
            ("GET", "/healthz"): self._healthz,
        }
        self._routes.update(getattr(router, "http_routes", dict)())
        self._server: Optional[asyncio.AbstractServer] = None
        # Open connections, closed by stop(): from Python 3.12 on,
        # wait_closed() waits for every idle keep-alive client.
        self._writers: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- the shared endpoints -----------------------------------------------

    def _route(self, request: Request) -> Dict:
        out = self.router.route(request.json(), city=request.param("city"))
        payload = dict(out["response"])
        payload["city"] = out["city"]
        if out.get("epoch") is not None:
            payload["epoch"] = out["epoch"]
        return payload

    def _metrics(self, request: Request):
        accept = request.headers.get("accept", "")
        if "text/plain" in accept or "openmetrics" in accept:
            return self._prometheus(request)
        return self.router.metrics_payload()

    def _prometheus(self, request: Request) -> Reply:
        return Reply(
            200, self.router.prometheus_payload(), PROMETHEUS_CONTENT_TYPE
        )

    def _healthz(self, request: Request) -> Reply:
        payload = self.router.healthz_payload()
        return Reply(503 if payload.get("degraded_shards") else 200, payload)

    # -- the HTTP shim ------------------------------------------------------

    async def _client(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while await self._serve_one(reader, writer):
                pass
        except (
            asyncio.IncompleteReadError, ConnectionError, TimeoutError
        ):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - teardown race
                pass

    async def _serve_one(self, reader, writer) -> bool:
        """Answer one request; False once the connection should close."""
        request_line = await reader.readline()
        if not request_line:
            return False
        try:
            method, target, _version = (
                request_line.decode("latin-1").split(maxsplit=2)
            )
        except ValueError:
            await self._respond(
                writer, Reply(400, {"error": "malformed request line"}),
                keep_alive=False,
            )
            return False
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            reply = Reply(400, {"error": "bad Content-Length header"})
        elif length > MAX_BODY_BYTES:
            reply = Reply(413, {"error": "request body too large"})
        else:
            body = await reader.readexactly(length) if length else b""
            keep_alive = headers.get("connection", "").lower() != "close"
            reply = await self._dispatch(method, target, headers, body)
            await self._respond(writer, reply, keep_alive)
            logger.info('"%s %s" %d', method, target, reply.status)
            return keep_alive
        # The body was not read, so the connection cannot carry another
        # request.
        await self._respond(writer, reply, keep_alive=False)
        return False

    async def _dispatch(
        self, method: str, target: str, headers: Dict[str, str], body: bytes
    ) -> Reply:
        parts = urlsplit(target)
        handler = self._routes.get((method, parts.path.rstrip("/") or "/"))
        if handler is None:
            return Reply(
                404, {"error": f"no handler for {method} {parts.path}"}
            )
        request = Request(parse_qs(parts.query), headers, body)
        loop = asyncio.get_running_loop()
        try:
            out = await loop.run_in_executor(None, handler, request)
        except Exception as exc:
            return _error_reply(exc)
        return out if isinstance(out, Reply) else Reply(200, out)

    async def _respond(self, writer, reply: Reply, keep_alive: bool) -> None:
        """The one writer of HTTP status lines, headers and bodies."""
        status, payload, content_type = reply
        if status == 400:
            self.router.count_bad_request()
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if status == 503 and isinstance(payload, dict):
            retry_after = payload.get("retry_after_s")
            if retry_after:
                head.append(f"Retry-After: {max(1, int(retry_after + 0.5))}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 8081):
        """Bind and start accepting (the backend must already be serving)."""
        self._server = await asyncio.start_server(self._client, host, port)
        bound = self._server.sockets[0].getsockname()
        logger.info("front end listening on %s:%s", bound[0], bound[1])
        return self._server

    async def stop(self) -> None:
        """Stop accepting, close open connections and wait for them."""
        if self._server is not None:
            self._server.close()
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    def bind(self, host: str, port: int) -> Tuple[str, int]:
        """Bind on a private event loop; serve later via :meth:`serve_forever`.

        Returns the bound ``(host, port)``, so callers can print the
        real address of ``port=0`` before serving.
        """
        self._loop = asyncio.new_event_loop()
        server = self._loop.run_until_complete(self.start(host, port))
        return server.sockets[0].getsockname()[:2]

    def serve_forever(self) -> None:
        """Serve on this thread until :meth:`shutdown` or Ctrl-C."""
        loop = self._loop
        try:
            loop.run_forever()
        except KeyboardInterrupt:
            pass
        finally:
            loop.run_until_complete(self.stop())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    def shutdown(self) -> None:
        """Make :meth:`serve_forever` return (thread- and signal-safe)."""
        self._loop.call_soon_threadsafe(self._loop.stop)

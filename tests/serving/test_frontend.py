"""The HTTP contract of the asyncio front end (``ShardFrontend``).

The front end is driven over real sockets, but the shard workers are
replaced by in-process fake handles: the router's own routing,
aggregation and health logic still run, while each test decides what
the "worker" answers or raises.  No process is spawned.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
from concurrent.futures import Future

import pytest

from repro.exceptions import (
    ConfigurationError,
    ServiceOverloadedError,
    ShardCrashedError,
    ShardUnavailableError,
)
from repro.serving.frontend import MAX_BODY_BYTES, ShardFrontend
from repro.serving.metrics import MetricsRegistry
from repro.serving.shard import SHARD_READY, ShardRouter, ShardSpec

#: (min_lat, min_lon, max_lat, max_lon) of the two fake shards.
BBOXES = {
    "melbourne": (-37.9, 144.8, -37.7, 145.1),
    "dhaka": (23.7, 90.3, 23.9, 90.5),
}

ROUTE = {
    "version": 1,
    "source_lat": -37.81,
    "source_lon": 144.96,
    "target_lat": -37.79,
    "target_lon": 144.99,
}


class FakeHandle:
    """Stands in for one shard worker's parent-side handle."""

    request_timeout_s = 5.0

    def __init__(self, city):
        self.city = city
        self.bbox = BBOXES[city]
        self.state = SHARD_READY
        self.pid = 4242
        self.fail_with = None
        self.routed = []
        self.metrics = MetricsRegistry()
        self.metrics.inc("queries.total", 3)

    def submit(self, op, payload=None):
        future = Future()
        if self.state != SHARD_READY:
            raise ShardUnavailableError(self.city, f"shard is {self.state}")
        if op == "route":
            self.routed.append(payload)
            if self.fail_with is not None:
                future.set_exception(self.fail_with)
            else:
                future.set_result({
                    "response": {"version": 1, "routes": {}, "errors": {}},
                    "fingerprints": {},
                    "epoch": "epoch-0",
                })
        elif op == "metrics":
            future.set_result({
                "state": self.metrics.to_state(),
                "payload": self.metrics.snapshot(),
            })
        return future

    def request(self, op, payload=None, timeout_s=None):
        return self.submit(op, payload).result(self.request_timeout_s)

    def health_payload(self):
        return {"state": self.state, "pid": self.pid, "retry_after_s": None}


class Served:
    def __init__(self, port, handles):
        self.port = port
        self.handles = handles

    def connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)

    def call(self, method, path, body=None, headers=None):
        """One request on a fresh connection: status, reason, headers, body."""
        conn = self.connect()
        try:
            if body is not None and not isinstance(body, (bytes, str)):
                body = json.dumps(body)
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return (
                response.status, response.reason, response.headers,
                response.read(),
            )
        finally:
            conn.close()

    def raw(self, data: bytes) -> bytes:
        """Send raw bytes; return everything the server wrote back."""
        with socket.create_connection(("127.0.0.1", self.port), 10) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)


@pytest.fixture()
def served():
    router = ShardRouter([ShardSpec(city) for city in BBOXES])
    handles = {city: FakeHandle(city) for city in BBOXES}
    router._handles = handles
    frontend = ShardFrontend(router)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        server = asyncio.run_coroutine_threadsafe(
            frontend.start("127.0.0.1", 0), loop
        ).result(10)
        yield Served(server.sockets[0].getsockname()[1], handles)
        asyncio.run_coroutine_threadsafe(frontend.stop(), loop).result(10)
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


def status_of(raw: bytes) -> int:
    return int(raw.split(b" ", 2)[1])


class TestRoute:
    def test_route_body_carries_city_and_epoch(self, served):
        status, reason, headers, body = served.call(
            "POST", "/api/route", ROUTE
        )
        assert (status, reason) == (200, "OK")
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["city"] == "melbourne"
        assert payload["epoch"] == "epoch-0"
        assert payload["version"] == 1
        assert len(served.handles["melbourne"].routed) == 1

    def test_city_query_parameter_pins_the_shard(self, served):
        status, _reason, _headers, body = served.call(
            "POST", "/api/route?city=dhaka", ROUTE
        )
        assert status == 200
        assert json.loads(body)["city"] == "dhaka"

    def test_unknown_path_is_404(self, served):
        status, _reason, _headers, body = served.call("GET", "/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_oversized_body_is_413(self, served):
        raw = served.raw(
            b"POST /api/route HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode()
            + b"\r\n\r\n"
        )
        assert status_of(raw) == 413

    @pytest.mark.parametrize("body", [b"this is not json", b"[1, 2]"])
    def test_invalid_json_or_non_object_is_400(self, served, body):
        status, _reason, _headers, reply = served.call(
            "POST", "/api/route", body
        )
        assert status == 400
        assert "error" in json.loads(reply)
        assert served.handles["melbourne"].routed == []


class TestShardFailures:
    def test_crashed_shard_is_502(self, served):
        served.handles["melbourne"].fail_with = ShardCrashedError(
            "melbourne", "worker died"
        )
        status, _reason, _headers, body = served.call(
            "POST", "/api/route", ROUTE
        )
        assert status == 502
        payload = json.loads(body)
        assert payload["type"] == "ShardCrashedError"
        assert payload["city"] == "melbourne"

    def test_unavailable_shard_is_503_with_retry_after(self, served):
        served.handles["melbourne"].fail_with = ShardUnavailableError(
            "melbourne", "respawning", retry_after_s=1.5
        )
        status, _reason, headers, body = served.call(
            "POST", "/api/route", ROUTE
        )
        assert status == 503
        assert headers["Retry-After"] == "2"
        assert json.loads(body)["retry_after_s"] == 1.5

    def test_overloaded_shard_is_503_with_retry_after(self, served):
        served.handles["melbourne"].fail_with = ServiceOverloadedError(
            4, 4, retry_after_s=2.0
        )
        status, _reason, headers, body = served.call(
            "POST", "/api/route", ROUTE
        )
        assert status == 503
        assert headers["Retry-After"] == "2"
        payload = json.loads(body)
        assert "overloaded" in payload["error"]
        assert payload["retry_after_s"] == 2.0


class TestMalformedRequests:
    """Every malformed request gets a reply; none drops the connection."""

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_bad_content_length_is_400(self, served, length):
        raw = served.raw(
            b"POST /api/route HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + length + b"\r\n\r\n{}"
        )
        assert status_of(raw) == 400

    @pytest.mark.parametrize(
        "body",
        [
            {},
            dict(ROUTE, source_lat="north"),
            {key: val for key, val in ROUTE.items() if key != "target_lon"},
            {
                "source": {"lat": -37.81, "lon": 144.96},
                "target": {"lat": -37.79, "lon": 144.99},
            },
        ],
        ids=["empty", "string-coordinate", "missing-field", "nested"],
    )
    def test_bad_route_body_is_a_typed_400(self, served, body):
        status, _reason, _headers, reply = served.call(
            "POST", "/api/route", body
        )
        assert status == 400
        payload = json.loads(reply)
        assert payload["type"] == "QueryError"
        assert served.handles["melbourne"].routed == []

    def test_nested_body_error_names_the_flat_shape(self, served):
        _status, _reason, _headers, reply = served.call(
            "POST", "/api/route",
            {"source": {"lat": -37.81, "lon": 144.96}, "target": {}},
        )
        assert "source_lat" in json.loads(reply)["error"]

    def test_bad_requests_are_counted(self, served):
        served.call("POST", "/api/route", b"{not json")
        served.call("POST", "/api/route", {})
        _status, _reason, _headers, body = served.call("GET", "/metrics")
        assert json.loads(body)["counters"]["http.bad_request"] == 2

    def test_unexpected_handler_error_is_a_logged_500(self, served, caplog):
        served.handles["melbourne"].fail_with = RuntimeError("boom")
        with caplog.at_level("ERROR", logger="repro.serving.frontend"):
            status, reason, _headers, body = served.call(
                "POST", "/api/route", ROUTE
            )
        assert (status, reason) == (500, "Internal Server Error")
        assert json.loads(body)["type"] == "RuntimeError"
        assert "boom" in caplog.text

    def test_library_error_is_500_with_its_own_reason(self, served):
        served.handles["melbourne"].fail_with = ConfigurationError("bad")
        status, reason, _headers, _body = served.call(
            "POST", "/api/route", ROUTE
        )
        assert (status, reason) == (500, "Internal Server Error")

    def test_connection_survives_a_rejected_body(self, served):
        conn = served.connect()
        try:
            conn.request("POST", "/api/route", body="{}")
            first = conn.getresponse()
            first.read()
            conn.request("POST", "/api/route", body=json.dumps(ROUTE))
            second = conn.getresponse()
            second.read()
        finally:
            conn.close()
        assert (first.status, second.status) == (400, 200)


class TestOperatorEndpoints:
    def test_metrics_json_merges_the_shards(self, served):
        status, _reason, headers, body = served.call("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["counters"]["queries.total"] == 6
        assert set(payload["shards"]) == set(BBOXES)

    def test_metrics_accept_negotiates_prometheus(self, served):
        status, _reason, headers, body = served.call(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert "repro_queries_total" in body.decode()

    def test_metrics_prometheus_path(self, served):
        status, _reason, headers, body = served.call(
            "GET", "/metrics/prometheus"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        assert "repro_queries_total" in text
        assert 'repro_shard_state{city="dhaka"} 0' in text

    def test_healthz_ok_while_every_shard_is_ready(self, served):
        status, _reason, _headers, body = served.call("GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_healthz_503_while_a_shard_is_degraded(self, served):
        served.handles["dhaka"].state = "degraded"
        status, _reason, _headers, body = served.call("GET", "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert payload["degraded_shards"] == ["dhaka"]


class TestConnection:
    def test_two_requests_on_one_keep_alive_connection(self, served):
        conn = served.connect()
        try:
            conn.request("GET", "/healthz")
            first = conn.getresponse()
            first.read()
            sock = conn.sock
            conn.request("POST", "/api/route", body=json.dumps(ROUTE))
            second = conn.getresponse()
            second.read()
            assert conn.sock is sock  # no reconnect between the two
        finally:
            conn.close()
        assert (first.status, second.status) == (200, 200)
        assert first.headers["Connection"] == "keep-alive"

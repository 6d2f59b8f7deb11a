"""End-to-end HTTP tests for the demo web application."""

import json
import urllib.error
import urllib.request

import pytest

from repro.demo import DemoServer, QueryProcessor, ResponseStore
from repro.experiments import default_planners


@pytest.fixture(scope="module")
def server():
    from repro.cities import melbourne

    network = melbourne(size="small")
    processor = QueryProcessor(network, default_planners(network))
    demo = DemoServer(processor, store=ResponseStore(), port=0)
    demo.start()
    yield demo
    demo.stop()


def get_json(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return json.load(response)


def post_json(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def corner_points(server):
    bbox = get_json(server, "/api/network")["bbox"]
    span_lat = bbox["north"] - bbox["south"]
    span_lon = bbox["east"] - bbox["west"]
    source = {
        "lat": bbox["south"] + 0.2 * span_lat,
        "lon": bbox["west"] + 0.2 * span_lon,
    }
    target = {
        "lat": bbox["south"] + 0.8 * span_lat,
        "lon": bbox["west"] + 0.8 * span_lon,
    }
    return source, target


def route_body(source, target, **extra):
    """The flat versioned /api/route body for two corner points."""
    body = {
        "version": 1,
        "source_lat": source["lat"],
        "source_lon": source["lon"],
        "target_lat": target["lat"],
        "target_lon": target["lon"],
    }
    body.update(extra)
    return body


class TestPages:
    def test_index_page_served(self, server):
        with urllib.request.urlopen(server.url + "/", timeout=10) as resp:
            body = resp.read().decode()
        assert "Alternative Route Planning" in body
        assert "Submit Rating" in body

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        assert excinfo.value.code == 404


class TestNetworkEndpoint:
    def test_geometry_payload(self, server):
        payload = get_json(server, "/api/network")
        assert payload["segments"]
        assert set(payload["bbox"]) == {"south", "west", "north", "east"}
        first = payload["segments"][0]
        assert len(first["points"]) == 2
        assert isinstance(first["major"], bool)


class TestRouteEndpoint:
    def test_route_computation(self, server):
        source, target = corner_points(server)
        payload = post_json(
            server, "/api/route", route_body(source, target)
        )
        assert set(payload["routes"]) == {"A", "B", "C", "D"}
        assert payload["fastest_minutes"] >= 1
        for collection in payload["routes"].values():
            assert collection["features"]

    def test_legacy_nested_payload_still_accepted(self, server):
        # The pre-versioning nested shape must keep working (it emits
        # a DeprecationWarning server-side; the wire tests pin that).
        source, target = corner_points(server)
        payload = post_json(
            server, "/api/route", {"source": source, "target": target}
        )
        assert set(payload["routes"]) == {"A", "B", "C", "D"}

    def test_malformed_body_rejected(self, server):
        request = urllib.request.Request(
            server.url + "/api/route",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_outside_service_area_rejected(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(
                server,
                "/api/route",
                {
                    "version": 1,
                    "source_lat": 0.0,
                    "source_lon": 0.0,
                    "target_lat": 1.0,
                    "target_lon": 1.0,
                },
            )
        assert excinfo.value.code == 400


class TestFeedbackEndpoint:
    def test_feedback_round_trip(self, server):
        source, target = corner_points(server)
        route = post_json(
            server, "/api/route", route_body(source, target)
        )
        before = get_json(server, "/api/stats")["responses"]
        stored = post_json(
            server,
            "/api/feedback",
            {
                "source": source,
                "target": target,
                "fastest_minutes": route["fastest_minutes"],
                "resident": True,
                "ratings": {"A": 2, "B": 5, "C": 4, "D": 3},
                "comment": "plateaus ftw",
            },
        )
        assert stored["stored"] is True
        stats = get_json(server, "/api/stats")
        assert stats["responses"] == before + 1
        assert stats["residents"] >= 1
        assert "mean_ratings" in stats

    def test_invalid_rating_rejected(self, server):
        source, target = corner_points(server)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(
                server,
                "/api/feedback",
                {
                    "source": source,
                    "target": target,
                    "fastest_minutes": 10,
                    "ratings": {"A": 9, "B": 5, "C": 4, "D": 3},
                },
            )
        assert excinfo.value.code == 400


class TestTableEndpoint:
    def test_empty_store_gives_empty_rows(self, server):
        # May run after feedback tests (module-scoped server), so just
        # assert the shape contract.
        payload = get_json(server, "/api/table")
        assert "rows" in payload
        for row in payload["rows"].values():
            for cell in row.values():
                assert set(cell) == {"mean", "std", "count"}
                assert 1.0 <= cell["mean"] <= 5.0

    def test_table_reflects_new_feedback(self, server):
        source, target = corner_points(server)
        post_json(
            server,
            "/api/feedback",
            {
                "source": source,
                "target": target,
                "fastest_minutes": 10,
                "resident": False,
                "ratings": {"A": 1, "B": 1, "C": 1, "D": 1},
            },
        )
        payload = get_json(server, "/api/table")
        non_res = payload["rows"]["non_residents"]
        assert non_res["A"]["count"] >= 1
        assert non_res["A"]["mean"] <= 5.0


class TestIsochroneEndpoint:
    def test_isochrone_payload(self, server):
        bbox = get_json(server, "/api/network")["bbox"]
        lat = (bbox["south"] + bbox["north"]) / 2
        lon = (bbox["west"] + bbox["east"]) / 2
        payload = get_json(
            server, f"/api/isochrone?lat={lat}&lon={lon}&minutes=5"
        )
        assert payload["reachable_nodes"] >= 1
        assert 0.0 < payload["coverage"] <= 1.0
        assert payload["outline"]

    def test_larger_budget_covers_more(self, server):
        bbox = get_json(server, "/api/network")["bbox"]
        lat = (bbox["south"] + bbox["north"]) / 2
        lon = (bbox["west"] + bbox["east"]) / 2
        small = get_json(
            server, f"/api/isochrone?lat={lat}&lon={lon}&minutes=2"
        )
        large = get_json(
            server, f"/api/isochrone?lat={lat}&lon={lon}&minutes=15"
        )
        assert large["coverage"] >= small["coverage"]

    def test_bad_query_rejected(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                server.url + "/api/isochrone?lat=abc", timeout=10
            )
        assert excinfo.value.code == 400

    def test_outside_area_rejected(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                server.url + "/api/isochrone?lat=0&lon=0&minutes=5",
                timeout=10,
            )
        assert excinfo.value.code == 400


class TestMetricsEndpoint:
    def test_metrics_payload_shape(self, server):
        payload = get_json(server, "/metrics")
        assert set(payload) == {
            "counters", "histograms", "cache", "circuits", "admission",
        }
        assert set(payload["cache"]) >= {"hits", "misses", "size", "max_size"}

    def test_route_queries_feed_the_metrics(self, server):
        source, target = corner_points(server)
        post_json(server, "/api/route", route_body(source, target))
        payload = get_json(server, "/metrics")
        assert payload["counters"]["queries.total"] >= 1
        assert payload["histograms"]["stage.vertex_match"]["count"] >= 1
        assert payload["histograms"]["stage.render"]["count"] >= 1

    def test_repeated_query_hits_the_route_cache(self, server):
        source, target = corner_points(server)
        body = route_body(source, target)
        post_json(server, "/api/route", body)
        before = get_json(server, "/metrics")["cache"]["hits"]
        payload = post_json(server, "/api/route", body)
        assert payload["cache_hits"] == 4
        assert get_json(server, "/metrics")["cache"]["hits"] == before + 4


class TestHealthEndpoint:
    def test_healthz_shape(self, server):
        payload = get_json(server, "/healthz")
        assert payload["status"] == "ok"
        assert payload["network"]["name"] == "melbourne-small"
        assert payload["network"]["nodes"] > 0
        assert payload["network"]["edges"] > 0
        assert payload["planners"] == 4
        assert payload["cache_size"] >= 0
        assert payload["uptime_s"] >= 0.0

    def test_healthz_process_and_snapshot_metadata(self, server):
        payload = get_json(server, "/healthz")
        assert payload["uptime_seconds"] >= 0.0
        assert payload["rss_bytes"] > 0  # resource-based RSS on Linux
        network = payload["network"]
        # No accelerator precomputation on the test server: the
        # attachment flags report exactly that.
        assert "csr_attached" not in network  # every search runs on CSR
        assert network["landmarks"] == 0
        assert network["ch_attached"] is False

    def test_healthz_reports_attached_accelerators(self, server):
        from repro.core.alt import ensure_landmarks
        from repro.core.ch import ensure_hierarchy
        from tests.conftest import drop_accelerators

        network = server.service.processor.network
        try:
            ensure_landmarks(network, count=4)
            ensure_hierarchy(network)
            payload = get_json(server, "/healthz")["network"]
            assert payload["landmarks"] == 4
            assert payload["ch_attached"] is True
        finally:
            drop_accelerators(network)


class TestProfileEndpoint:
    def test_profile_disabled_by_default(self, server):
        payload = get_json(server, "/debug/profile")
        assert payload["enabled"] is False
        assert payload["phases"] == []

    def test_enabled_profiler_attributes_query_phases(self, server):
        profiler = server.service.profiler
        profiler.enable()
        try:
            # Fresh coordinates: a cache hit would skip the plan phases.
            bbox = get_json(server, "/api/network")["bbox"]
            span_lat = bbox["north"] - bbox["south"]
            span_lon = bbox["east"] - bbox["west"]
            source = {
                "lat": bbox["south"] + 0.35 * span_lat,
                "lon": bbox["west"] + 0.15 * span_lon,
            }
            target = {
                "lat": bbox["south"] + 0.65 * span_lat,
                "lon": bbox["west"] + 0.85 * span_lon,
            }
            post_json(server, "/api/route", route_body(source, target))
            payload = get_json(server, "/debug/profile")
        finally:
            profiler.enable(False)
            profiler.reset()
        assert payload["enabled"] is True
        assert payload["scopes"] >= 1
        tops = {node["name"]: node for node in payload["phases"]}
        assert "query" in tops
        child_names = {
            child["name"] for child in tops["query"].get("children", ())
        }
        assert "snap" in child_names
        assert any(name.startswith("plan.") for name in child_names)


class TestTraceEndpoint:
    def test_route_query_produces_full_trace(self, server):
        source, target = corner_points(server)
        post_json(server, "/api/route", route_body(source, target))
        trace = get_json(server, "/trace?limit=1")["traces"][0]
        spans = trace["spans"]
        assert len(spans) >= 5
        assert {s["trace_id"] for s in spans} == {trace["trace_id"]}
        names = [s["name"] for s in spans]
        assert names[0] == "request"
        assert "query" in names
        assert "snap" in names
        assert "cache" in names
        assert "filter" in names
        assert "render" in names

    def test_limit_query_parameter(self, server):
        source, target = corner_points(server)
        for _ in range(2):
            post_json(
                server, "/api/route", route_body(source, target)
            )
        assert len(get_json(server, "/trace")["traces"]) >= 2
        assert len(get_json(server, "/trace?limit=1")["traces"]) == 1

    def test_bad_limit_rejected(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/trace?limit=abc", timeout=10)
        assert excinfo.value.code == 400


class TestPrometheusExposition:
    def _scrape(self, server):
        request = urllib.request.Request(
            server.url + "/metrics", headers={"Accept": "text/plain"}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.headers["Content-Type"], response.read().decode()

    def test_content_negotiation(self, server):
        content_type, text = self._scrape(server)
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "# TYPE " in text
        # No Accept (or JSON) keeps the JSON payload.
        payload = get_json(server, "/metrics")
        assert "counters" in payload

    def test_search_gauges_present_after_a_query(self, server):
        source, target = corner_points(server)
        post_json(server, "/api/route", route_body(source, target))
        _content_type, text = self._scrape(server)
        assert "# TYPE repro_search_nodes_expanded gauge" in text
        assert 'repro_search_nodes_expanded{approach="Penalty"}' in text
        assert "repro_queries_total" in text
        assert "repro_cache_size" in text


class TestRouteEndpointExtensions:
    def test_approaches_subset_and_k(self, server):
        source, target = corner_points(server)
        payload = post_json(
            server,
            "/api/route",
            route_body(source, target, approaches=["Penalty"], k=1),
        )
        assert set(payload["routes"]) == {"D"}
        assert len(payload["routes"]["D"]["features"]) == 1
        assert payload["errors"] == {}
        assert payload["degraded"] is False


class TestResilienceEndpoints:
    def test_healthz_degrades_while_a_circuit_is_open(self, server):
        breaker = server.service._breakers["Plateaus"]
        try:
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            payload = get_json(server, "/healthz")
            assert payload["status"] == "degraded"
            assert payload["open_circuits"] == ["Plateaus"]
            assert payload["circuits"]["Plateaus"]["state"] == "open"
            assert payload["circuits"]["Plateaus"]["retry_in_s"] > 0
        finally:
            breaker.record_success()
        assert get_json(server, "/healthz")["status"] == "ok"

    def test_overload_returns_503_with_retry_after(self, server):
        from repro.serving.resilience import InflightGate

        original = server.service._gate
        full = InflightGate(limit=1, retry_after_s=2.0)
        full.acquire()  # the gate is now at capacity
        server.service._gate = full
        try:
            source, target = corner_points(server)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(
                    server, "/api/route",
                    route_body(source, target),
                )
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "2"
            body = json.load(excinfo.value)
            assert "overloaded" in body["error"]
            assert body["retry_after_s"] == 2.0
        finally:
            server.service._gate = original

    def test_bad_request_bodies_are_counted(self, server):
        before = get_json(server, "/metrics")["counters"].get(
            "http.bad_request", 0
        )
        request = urllib.request.Request(
            server.url + "/api/route",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        after = get_json(server, "/metrics")["counters"]["http.bad_request"]
        assert after == before + 1

    def test_prometheus_renders_circuit_and_admission_metrics(self, server):
        request = urllib.request.Request(
            server.url + "/metrics", headers={"Accept": "text/plain"}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            text = response.read().decode()
        assert "# TYPE repro_circuit_state gauge" in text
        assert 'repro_circuit_state{approach="Plateaus"} 0' in text
        assert 'repro_circuit_opened_total{approach="Plateaus"}' in text
        assert "# TYPE repro_inflight gauge" in text
        assert "repro_shed_total" in text


@pytest.fixture()
def live_server(grid10):
    """A demo server whose service follows a live traffic controller."""
    from repro.serving import LiveTrafficController, RouteService

    live = LiveTrafficController(grid10, breaker_threshold=1)
    processor = QueryProcessor(grid10, default_planners(grid10))
    service = RouteService(
        processor, breaker_threshold=0, max_inflight=0, live=live
    )
    demo = DemoServer(
        processor, store=ResponseStore(), port=0, service=service
    )
    demo.start()
    yield demo, live
    demo.stop()


class TestLiveTrafficHealth:
    def test_healthz_carries_the_traffic_section(self, live_server):
        demo, live = live_server
        payload = get_json(demo, "/healthz")
        assert payload["status"] == "ok"
        traffic = payload["traffic"]
        assert traffic["epoch_id"] == "epoch-0"
        assert traffic["degraded"] is False
        assert traffic["feed_breaker"]["state"] == "closed"
        assert payload["weights_stale_seconds"] >= 0.0

    def test_healthz_degrades_when_the_feed_breaker_opens(
        self, live_server
    ):
        import math

        from repro.traffic import TrafficUpdateBatch

        demo, live = live_server
        outcome = live.ingest(
            TrafficUpdateBatch(seq=1, hour=8.0, updates={0: math.nan})
        )
        assert outcome.status == "quarantined"
        payload = get_json(demo, "/healthz")
        assert payload["status"] == "degraded"
        traffic = payload["traffic"]
        assert traffic["degraded"] is True
        assert traffic["feed_breaker"]["state"] == "open"
        assert traffic["quarantined_by_reason"]["nan_weight"] == 1
        # Serving stays up on the last good epoch the whole time.
        assert traffic["epoch_id"] == "epoch-0"

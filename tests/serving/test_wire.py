"""Tests for the versioned route request/response wire format.

:class:`~repro.serving.query.RouteRequest` and
:class:`~repro.serving.query.RouteResponse` are the JSON shapes the
``/api/route`` endpoint and ``repro batch --json`` speak.  These tests
pin the contract: flat versioned bodies round-trip losslessly, the
retired nested shape is rejected naming the flat one, version mismatches are
rejected with typed errors, and ``RouteService.respond`` emits a
response that survives a JSON round trip.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import QueryError
from repro.serving import (
    ROUTE_API_VERSION,
    RouteRequest,
    RouteResponse,
    RouteService,
)


class TestRouteRequest:
    def test_round_trip_minimal(self):
        request = RouteRequest(-37.8, 144.9, -37.7, 145.0)
        payload = request.to_json()
        assert payload["version"] == ROUTE_API_VERSION
        assert "approaches" not in payload  # optionals omitted
        assert "k" not in payload
        assert "backend" not in payload
        assert RouteRequest.from_json(payload) == request

    def test_round_trip_full(self):
        request = RouteRequest(
            -37.8,
            144.9,
            -37.7,
            145.0,
            approaches=("Penalty", "Plateaus"),
            k=2,
            backend="ch",
        )
        payload = json.loads(json.dumps(request.to_json()))
        assert RouteRequest.from_json(payload) == request

    def test_to_query_carries_every_field(self):
        request = RouteRequest(
            1.0, 2.0, 3.0, 4.0, approaches=("Penalty",), k=2, backend="alt"
        )
        query = request.to_query()
        assert (query.source_lat, query.target_lon) == (1.0, 4.0)
        assert query.approaches == ("Penalty",)
        assert query.k == 2
        assert query.backend == "alt"

    def test_legacy_nested_shape_rejected(self):
        payload = {
            "source": {"lat": -37.8, "lon": 144.9},
            "target": {"lat": -37.7, "lon": 145.0},
            "k": 2,
        }
        with pytest.raises(QueryError, match="flat shape") as excinfo:
            RouteRequest.from_json(payload)
        assert '"source_lat"' in str(excinfo.value)

    def test_flat_shape_does_not_warn(self, recwarn):
        RouteRequest.from_json(
            {
                "version": 1,
                "source_lat": 0.0,
                "source_lon": 0.0,
                "target_lat": 1.0,
                "target_lon": 1.0,
            }
        )
        deprecations = [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations

    def test_missing_version_defaults_to_current(self):
        request = RouteRequest.from_json(
            {
                "source_lat": 0.0,
                "source_lon": 0.0,
                "target_lat": 1.0,
                "target_lon": 1.0,
            }
        )
        assert request.version == ROUTE_API_VERSION

    def test_future_version_rejected(self):
        with pytest.raises(QueryError, match="version"):
            RouteRequest.from_json(
                {
                    "version": ROUTE_API_VERSION + 1,
                    "source_lat": 0.0,
                    "source_lon": 0.0,
                    "target_lat": 1.0,
                    "target_lon": 1.0,
                }
            )

    def test_non_integer_version_rejected(self):
        with pytest.raises(QueryError, match="version"):
            RouteRequest.from_json(
                {
                    "version": "1",
                    "source_lat": 0.0,
                    "source_lon": 0.0,
                    "target_lat": 1.0,
                    "target_lon": 1.0,
                }
            )

    def test_missing_coordinate_rejected(self):
        with pytest.raises(QueryError):
            RouteRequest.from_json({"version": 1, "source_lat": 0.0})

    def test_bad_backend_rejected_at_parse_time(self):
        with pytest.raises(QueryError, match="backend"):
            RouteRequest.from_json(
                {
                    "version": 1,
                    "source_lat": 0.0,
                    "source_lon": 0.0,
                    "target_lat": 1.0,
                    "target_lon": 1.0,
                    "backend": "quantum",
                }
            )

    def test_non_mapping_rejected(self):
        with pytest.raises(QueryError, match="JSON object"):
            RouteRequest.from_json([1, 2, 3])


class TestRouteResponse:
    def test_round_trip(self):
        response = RouteResponse(
            source_node=3,
            target_node=99,
            fastest_minutes=12,
            routes={"Route A": {"type": "FeatureCollection"}},
            errors={"Route B": "TimeoutError: too slow"},
            degraded=True,
            cache_hits=1,
        )
        payload = json.loads(json.dumps(response.to_json()))
        assert payload["version"] == ROUTE_API_VERSION
        assert RouteResponse.from_json(payload) == response

    def test_optional_fields_default(self):
        response = RouteResponse.from_json(
            {
                "version": 1,
                "source_node": 0,
                "target_node": 1,
                "fastest_minutes": 5,
                "routes": {},
            }
        )
        assert response.errors == {}
        assert response.degraded is False
        assert response.cache_hits == 0

    def test_future_version_rejected(self):
        with pytest.raises(QueryError, match="version"):
            RouteResponse.from_json(
                {
                    "version": ROUTE_API_VERSION + 1,
                    "source_node": 0,
                    "target_node": 1,
                    "fastest_minutes": 5,
                    "routes": {},
                }
            )

    def test_missing_field_rejected(self):
        with pytest.raises(QueryError):
            RouteResponse.from_json({"version": 1, "source_node": 0})


class TestServiceRespond:
    def test_respond_round_trips_through_json(
        self, grid_processor, grid_query
    ):
        service = RouteService(grid_processor, timeout_s=10.0)
        try:
            result = service.query(grid_query)
            response = service.respond(result)
        finally:
            service.close()
        assert response.version == ROUTE_API_VERSION
        assert response.source_node == result.source_node
        assert response.fastest_minutes == result.fastest_minutes
        assert set(response.routes) == set(result.route_sets)
        wire = json.loads(json.dumps(response.to_json()))
        assert RouteResponse.from_json(wire) == response

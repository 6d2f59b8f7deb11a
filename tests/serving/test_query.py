"""Tests for the typed RouteQuery (and the retired nested body)."""

import pytest

from repro.exceptions import QueryError
from repro.serving import RouteQuery, RouteRequest


class TestValidation:
    def test_plain_coordinates(self):
        query = RouteQuery(-37.8, 144.9, -37.7, 145.0)
        assert query.approaches is None
        assert query.k is None

    def test_non_numeric_coordinate_rejected(self):
        with pytest.raises(QueryError):
            RouteQuery("-37.8", 144.9, -37.7, 145.0)

    def test_approaches_list_normalised_to_tuple(self):
        query = RouteQuery(
            0.0, 0.0, 1.0, 1.0, approaches=["Penalty", "Plateaus"]
        )
        assert query.approaches == ("Penalty", "Plateaus")

    def test_empty_approaches_rejected(self):
        with pytest.raises(QueryError):
            RouteQuery(0.0, 0.0, 1.0, 1.0, approaches=())

    def test_duplicate_approaches_rejected(self):
        with pytest.raises(QueryError):
            RouteQuery(
                0.0, 0.0, 1.0, 1.0, approaches=("Penalty", "Penalty")
            )

    def test_bad_k_rejected(self):
        with pytest.raises(QueryError):
            RouteQuery(0.0, 0.0, 1.0, 1.0, k=0)


class TestNestedPayloadRejected:
    """The retired nested ``/api/route`` body no longer parses."""

    def test_original_webapp_shape(self):
        with pytest.raises(QueryError, match="flat shape"):
            RouteRequest.from_json(
                {
                    "source": {"lat": -37.8, "lon": 144.9},
                    "target": {"lat": -37.7, "lon": 145.0},
                }
            )

    def test_extended_shape(self):
        with pytest.raises(QueryError, match="flat shape"):
            RouteRequest.from_json(
                {
                    "source": {"lat": -37.8, "lon": 144.9},
                    "target": {"lat": -37.7, "lon": 145.0},
                    "approaches": ["Penalty"],
                    "k": 2,
                }
            )

    def test_missing_field_raises_query_error(self):
        with pytest.raises(QueryError, match="flat shape"):
            RouteRequest.from_json({"source": {"lat": 1.0}})

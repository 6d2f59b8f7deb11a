"""Tests for the demo query processor, and the route service running it."""

import pytest

from repro.demo import APPROACH_LABELS, QueryProcessor
from repro.exceptions import OutsideServiceAreaError, QueryError
from repro.experiments import default_planners
from repro.geometry import BoundingBox
from repro.serving import RouteService


@pytest.fixture(scope="module")
def processor():
    from repro.cities import melbourne

    network = melbourne(size="small")
    return QueryProcessor(network, default_planners(network))


@pytest.fixture(scope="module")
def service(processor):
    with RouteService(processor, cache_size=0) as service:
        yield service


def far_corners(processor):
    bbox = processor.network.bounding_box()
    return (
        (bbox.south + 0.1 * bbox.height_deg, bbox.west + 0.1 * bbox.width_deg),
        (bbox.south + 0.9 * bbox.height_deg, bbox.west + 0.9 * bbox.width_deg),
    )


class TestBlinding:
    def test_paper_label_assignment(self):
        assert APPROACH_LABELS == {
            "Google Maps": "A",
            "Plateaus": "B",
            "Dissimilarity": "C",
            "Penalty": "D",
        }


class TestMatching:
    def test_match_returns_nearest_vertex(self, processor):
        node = processor.network.node(10)
        assert processor.match_vertex(node.lat, node.lon) == 10

    def test_outside_service_area_rejected(self, processor):
        with pytest.raises(OutsideServiceAreaError):
            processor.match_vertex(0.0, 0.0)

    def test_custom_service_area(self):
        from repro.cities import melbourne

        network = melbourne(size="small")
        tiny = BoundingBox(-37.80, 144.95, -37.79, 144.96)
        processor = QueryProcessor(
            network, default_planners(network), service_area=tiny
        )
        bbox = network.bounding_box()
        with pytest.raises(OutsideServiceAreaError):
            processor.match_vertex(bbox.south, bbox.west)


class TestProcess:
    def test_result_structure(self, processor, service):
        (s_lat, s_lon), (t_lat, t_lon) = far_corners(processor)
        result = service.query(s_lat, s_lon, t_lat, t_lon)
        assert set(result.route_sets) == {"A", "B", "C", "D"}
        assert result.fastest_minutes >= 1
        assert result.source_node != result.target_node

    def test_every_route_set_connects_the_query(self, processor, service):
        (s_lat, s_lon), (t_lat, t_lon) = far_corners(processor)
        result = service.query(s_lat, s_lon, t_lat, t_lon)
        for route_set in result.route_sets.values():
            assert route_set.source == result.source_node
            assert route_set.target == result.target_node

    def test_same_vertex_query_rejected(self, processor, service):
        node = processor.network.node(5)
        with pytest.raises(QueryError):
            service.query(node.lat, node.lon, node.lat, node.lon)

    def test_geojson_payload(self, processor, service):
        (s_lat, s_lon), (t_lat, t_lon) = far_corners(processor)
        result = service.query(s_lat, s_lon, t_lat, t_lon)
        payload = service.render(result)["routes"]
        for label, collection in payload.items():
            assert collection["type"] == "FeatureCollection"
            assert collection["properties"]["label"] == label
            for feature in collection["features"]:
                assert feature["geometry"]["type"] == "LineString"
                assert feature["properties"]["travel_time_min"] >= 0

    def test_missing_planner_rejected(self, processor):
        planners = dict(processor.planners)
        del planners["Plateaus"]
        with pytest.raises(QueryError):
            QueryProcessor(processor.network, planners)


class TestRouteQueryForm:
    """query() accepts a typed RouteQuery with serving overrides."""

    def test_route_query_matches_positional_call(self, processor, service):
        from repro.serving import RouteQuery

        (s_lat, s_lon), (t_lat, t_lon) = far_corners(processor)
        positional = service.query(s_lat, s_lon, t_lat, t_lon)
        typed = service.query(RouteQuery(s_lat, s_lon, t_lat, t_lon))
        assert set(typed.route_sets) == set(positional.route_sets)
        assert typed.fastest_minutes == positional.fastest_minutes
        assert typed.source_node == positional.source_node

    def test_approaches_subset_keeps_blinded_labels(self, processor, service):
        from repro.serving import RouteQuery

        (s_lat, s_lon), (t_lat, t_lon) = far_corners(processor)
        result = service.query(
            RouteQuery(
                s_lat, s_lon, t_lat, t_lon,
                approaches=("Penalty", "Plateaus"),
            )
        )
        assert set(result.route_sets) == {"B", "D"}

    def test_k_override_trims_route_sets(self, processor, service):
        from repro.serving import RouteQuery

        (s_lat, s_lon), (t_lat, t_lon) = far_corners(processor)
        result = service.query(
            RouteQuery(s_lat, s_lon, t_lat, t_lon, k=1)
        )
        assert all(len(rs) == 1 for rs in result.route_sets.values())

    def test_unknown_approach_rejected(self, processor, service):
        from repro.serving import RouteQuery

        (s_lat, s_lon), (t_lat, t_lon) = far_corners(processor)
        with pytest.raises(QueryError, match="unknown approaches"):
            service.query(
                RouteQuery(s_lat, s_lon, t_lat, t_lon, approaches=("X",))
            )

    def test_mixing_query_and_coordinates_rejected(self, processor, service):
        from repro.serving import RouteQuery

        (s_lat, s_lon), (t_lat, t_lon) = far_corners(processor)
        query = RouteQuery(s_lat, s_lon, t_lat, t_lon)
        with pytest.raises(QueryError):
            service.query(query, s_lon)


class TestEmptyRouteSets:
    def test_all_empty_raises_query_error_not_value_error(self, grid10):
        from repro.core.base import AlternativeRoutePlanner
        from repro.study.rating import APPROACHES

        class EmptyPlanner(AlternativeRoutePlanner):
            def __init__(self, network, name):
                super().__init__(network)
                self.name = name

            def _plan_routes(self, source, target):
                return []

        processor = QueryProcessor(
            grid10, {name: EmptyPlanner(grid10, name) for name in APPROACHES}
        )
        source = grid10.node(0)
        target = grid10.node(grid10.num_nodes - 1)
        with RouteService(processor) as service:
            with pytest.raises(QueryError, match="empty route set"):
                service.query(source.lat, source.lon, target.lat, target.lon)


class TestRegistryDefaults:
    def test_processor_builds_paper_planners_when_omitted(self):
        from repro.cities import melbourne
        from repro.study.rating import APPROACHES

        network = melbourne(size="small")
        processor = QueryProcessor(network)
        assert tuple(processor.planners) == APPROACHES

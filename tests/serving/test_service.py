"""Tests for the route service: cache, concurrency, degradation, metrics."""

import pytest

from repro.exceptions import ConfigurationError, QueryError
from repro.serving import MetricsRegistry, RouteQuery, RouteService


@pytest.fixture()
def service(grid_processor):
    svc = RouteService(grid_processor, cache_size=64, timeout_s=10.0)
    yield svc
    svc.close()


class TestServing:
    def test_blinded_labels_match_demo(self, service, grid_query):
        result = service.query(grid_query)
        assert sorted(result.route_sets) == ["A", "B", "C", "D"]
        assert not result.degraded
        assert result.errors == {}
        assert result.fastest_minutes >= 0

    def test_raw_coordinate_signature(self, service, grid_query):
        result = service.query(
            grid_query.source_lat,
            grid_query.source_lon,
            grid_query.target_lat,
            grid_query.target_lon,
        )
        assert sorted(result.route_sets) == ["A", "B", "C", "D"]

    def test_approaches_subset(self, service, grid_query, stub_planners):
        query = RouteQuery(
            grid_query.source_lat, grid_query.source_lon,
            grid_query.target_lat, grid_query.target_lon,
            approaches=("Penalty", "Plateaus"),
        )
        result = service.query(query)
        assert sorted(result.route_sets) == ["B", "D"]
        assert stub_planners["Dissimilarity"].calls == 0

    def test_unknown_approach_rejected(self, service, grid_query):
        query = RouteQuery(
            grid_query.source_lat, grid_query.source_lon,
            grid_query.target_lat, grid_query.target_lon,
            approaches=("Nope",),
        )
        with pytest.raises(QueryError, match="unknown approaches"):
            service.query(query)

    def test_per_query_k_override(self, service, grid_query):
        query = RouteQuery(
            grid_query.source_lat, grid_query.source_lon,
            grid_query.target_lat, grid_query.target_lon,
            k=1,
        )
        result = service.query(query)
        assert all(len(rs) == 1 for rs in result.route_sets.values())


class TestCacheIntegration:
    def test_hit_skips_planner_invocation(
        self, service, grid_query, stub_planners
    ):
        service.query(grid_query)
        calls = {n: p.calls for n, p in stub_planners.items()}
        result = service.query(grid_query)
        assert {n: p.calls for n, p in stub_planners.items()} == calls
        assert result.cache_hits == 4
        assert all(o.cached for o in result.outcomes)

    def test_k_override_is_part_of_the_key(
        self, service, grid_query, stub_planners
    ):
        service.query(grid_query)
        calls = stub_planners["Penalty"].calls
        query = RouteQuery(
            grid_query.source_lat, grid_query.source_lon,
            grid_query.target_lat, grid_query.target_lon,
            k=1,
        )
        service.query(query)
        assert stub_planners["Penalty"].calls == calls + 1

    def test_invalidate_forces_replanning(
        self, service, grid_query, stub_planners
    ):
        service.query(grid_query)
        assert service.invalidate_cache() == 4
        calls = stub_planners["Penalty"].calls
        service.query(grid_query)
        assert stub_planners["Penalty"].calls == calls + 1

    def test_failed_plans_are_not_cached(
        self, service, grid_query, stub_planners
    ):
        stub_planners["Penalty"].fail = True
        first = service.query(grid_query)
        assert "D" in first.errors
        stub_planners["Penalty"].fail = False
        second = service.query(grid_query)
        assert "D" in second.route_sets
        assert not second.degraded


class TestDegradation:
    def test_one_failure_serves_the_rest(
        self, service, grid_query, stub_planners
    ):
        stub_planners["Plateaus"].fail = True
        result = service.query(grid_query)
        assert sorted(result.route_sets) == ["A", "C", "D"]
        assert result.degraded
        assert "RuntimeError" in result.errors["B"]
        assert "Plateaus exploded" in result.errors["B"]

    def test_timeout_yields_marker_not_exception(
        self, grid_processor, grid_query, stub_planners
    ):
        """Planning is serial in A-D order under one deadline: C overruns
        it (a timeout that feeds C's breaker), and D, whose turn comes
        after it expired, is not started (a timeout that does not)."""
        stub_planners["Dissimilarity"].delay_s = 0.4
        service = RouteService(
            grid_processor, cache_size=0, timeout_s=0.2, breaker_threshold=1
        )
        try:
            result = service.query(grid_query)
        finally:
            service.close()
        assert list(result.route_sets) == ["A", "B"]
        assert list(result.errors) == ["C", "D"]
        assert "TimeoutError" in result.errors["C"]
        assert "TimeoutError" in result.errors["D"]
        assert "before the planner started" in result.errors["D"]
        assert stub_planners["Penalty"].calls == 0
        counters = service.metrics_payload()["counters"]
        assert counters["plan.timeouts.Dissimilarity"] == 1
        assert counters["plan.timeouts.Penalty"] == 1
        assert service.open_circuits() == ["Dissimilarity"]

    def test_every_approach_failing_raises(
        self, service, grid_query, stub_planners
    ):
        for planner in stub_planners.values():
            planner.fail = True
        with pytest.raises(QueryError, match="no approach produced"):
            service.query(grid_query)

    def test_all_empty_route_sets_raise_query_error(
        self, service, grid_query, stub_planners
    ):
        for planner in stub_planners.values():
            planner.empty = True
        with pytest.raises(QueryError, match="no approach produced"):
            service.query(grid_query)


class TestMetrics:
    def test_payload_shape_and_stage_coverage(self, service, grid_query):
        service.query(grid_query)
        payload = service.metrics_payload()
        assert set(payload) == {
            "counters", "histograms", "cache", "circuits", "admission",
        }
        assert payload["counters"]["queries.total"] == 1
        assert payload["counters"]["cache.misses"] == 4
        histograms = payload["histograms"]
        for stage in (
            "stage.vertex_match",
            "stage.plan.Penalty",
            "stage.re_price",
            "query.total",
        ):
            assert histograms[stage]["count"] >= 1, stage

    def test_failure_and_degradation_counters(
        self, service, grid_query, stub_planners
    ):
        stub_planners["Penalty"].fail = True
        service.query(grid_query)
        counters = service.metrics_payload()["counters"]
        assert counters["plan.errors.Penalty"] == 1
        assert counters["queries.degraded"] == 1

    def test_render_stage_is_timed(self, service, grid_query):
        payload = service.render(service.query(grid_query))
        assert set(payload["routes"]) == {"A", "B", "C", "D"}
        assert payload["errors"] == {}
        histograms = service.metrics_payload()["histograms"]
        assert histograms["stage.render"]["count"] == 1

    def test_shared_registry(self, grid_processor, grid_query):
        registry = MetricsRegistry()
        service = RouteService(
            grid_processor, cache_size=0, metrics=registry
        )
        try:
            service.query(grid_query)
        finally:
            service.close()
        assert registry.counter("queries.total").value == 1


class TestConfiguration:
    def test_bad_timeout_rejected(self, grid_processor):
        with pytest.raises(ConfigurationError):
            RouteService(grid_processor, timeout_s=0.0)

    def test_from_network_uses_registry_planners(self, melbourne_small):
        service = RouteService.from_network(melbourne_small)
        try:
            names = sorted(service.processor.planners)
        finally:
            service.close()
        assert names == [
            "Dissimilarity", "Google Maps", "Penalty", "Plateaus",
        ]

"""RouteService.plan_many: batch serving with shared search contexts."""

from __future__ import annotations

import pytest

from repro.core import PlateauPlanner, paper_planners
from repro.demo.query_processor import QueryProcessor
from repro.exceptions import QueryError
from repro.serving import BatchResult, RouteQuery, RouteService


def _grid_query(grid10, source_id, target_id, **kwargs):
    source = grid10.node(source_id)
    target = grid10.node(target_id)
    return RouteQuery(source.lat, source.lon, target.lat, target.lon,
                      **kwargs)


@pytest.fixture()
def service(grid_processor):
    with RouteService(grid_processor, cache_size=0) as service:
        yield service


class TestPlanMany:
    def test_serves_every_query_in_order(self, service, grid10):
        queries = [
            _grid_query(grid10, 0, 99),
            _grid_query(grid10, 0, 90),
            _grid_query(grid10, 9, 99),
        ]
        batch = service.plan_many(queries)
        assert isinstance(batch, BatchResult)
        assert len(batch) == 3
        assert batch.served == 3
        assert batch.failed == 0
        for index, outcome in enumerate(batch):
            assert outcome.index == index
            assert outcome.query is queries[index]
            assert outcome.ok
            assert outcome.result.route_sets
        assert len(batch.results()) == 3

    def test_accepts_coordinate_tuples(self, service, grid10):
        source, target = grid10.node(0), grid10.node(99)
        batch = service.plan_many(
            [(source.lat, source.lon, target.lat, target.lon)]
        )
        assert batch.served == 1

    def test_bad_query_becomes_error_marker(self, service, grid10):
        good = _grid_query(grid10, 0, 99)
        bad = _grid_query(grid10, 5, 5)  # snaps to the same vertex
        batch = service.plan_many([good, bad, good])
        assert batch.served == 2
        assert batch.failed == 1
        failed = batch.outcomes[1]
        assert not failed.ok
        assert failed.error is not None
        assert "QueryError" in failed.error
        assert batch.results()[0].route_sets  # good ones unaffected

    def test_context_stats_report_shared_origin(self, grid10):
        processor = QueryProcessor(
            grid10,
            {name: PlateauPlanner(grid10)
             for name in ("Google Maps", "Plateaus", "Dissimilarity",
                          "Penalty")},
        )
        with RouteService(processor, cache_size=0) as service:
            queries = [
                _grid_query(grid10, 0, 99, approaches=("Plateaus",)),
                _grid_query(grid10, 0, 90, approaches=("Plateaus",)),
                _grid_query(grid10, 0, 80, approaches=("Plateaus",)),
            ]
            batch = service.plan_many(queries)
        assert batch.served == 3
        stats = batch.context_stats
        assert stats["distinct_sources"] == 1
        assert stats["distinct_targets"] == 3
        # 3 queries x 2 trees: 1 shared forward + 3 backward misses.
        assert stats["tree_misses"] == 4
        assert stats["tree_hits"] == 2

    def test_share_context_disabled_reports_no_stats(
        self, grid_processor, grid10
    ):
        with RouteService(
            grid_processor, cache_size=0, share_context=False
        ) as service:
            batch = service.plan_many([_grid_query(grid10, 0, 99)])
        assert batch.served == 1
        assert batch.context_stats == {}

    def test_batch_metrics_counters(self, service, grid10):
        service.plan_many(
            [_grid_query(grid10, 0, 99), _grid_query(grid10, 0, 90)]
        )
        counters = service.metrics_payload()["counters"]
        assert counters["batch.batches"] == 1
        assert counters["batch.queries"] == 2

    def test_empty_batch(self, service):
        batch = service.plan_many([])
        assert len(batch) == 0
        assert batch.served == 0
        assert batch.results() == []


class TestBatchEqualsSingleQueries:
    def test_batch_results_match_individual_queries(self, grid10):
        processor = QueryProcessor(grid10, paper_planners(grid10))
        queries = [
            _grid_query(grid10, 0, 99),
            _grid_query(grid10, 0, 90),
            _grid_query(grid10, 9, 99),
        ]
        with RouteService(
            processor, cache_size=0, share_context=False
        ) as unshared:
            singles = [unshared.query(query) for query in queries]
        with RouteService(processor, cache_size=0) as shared:
            batch = shared.plan_many(queries)
        for single, outcome in zip(singles, batch):
            assert outcome.result.route_sets == single.route_sets
            assert outcome.result.fastest_minutes == single.fastest_minutes


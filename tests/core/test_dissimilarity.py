"""Tests for the Dissimilarity / SSVP-D+ planner (paper §2.3)."""

import random

import pytest

from repro.algorithms import shortest_path
from repro.algorithms.dijkstra import dijkstra
from repro.cities import CITY_BUILDERS
from repro.core import DissimilarityPlanner
from repro.exceptions import ConfigurationError, DisconnectedError
from repro.graph.builder import RoadNetworkBuilder
from repro.graph.path import Path
from repro.metrics.similarity import dissimilarity, dissimilarity_to_set


class TestConfiguration:
    def test_paper_default_theta(self, grid10):
        assert DissimilarityPlanner(grid10).theta == 0.5

    def test_invalid_theta_rejected(self, grid10):
        with pytest.raises(ConfigurationError):
            DissimilarityPlanner(grid10, theta=1.0)
        with pytest.raises(ConfigurationError):
            DissimilarityPlanner(grid10, theta=-0.1)

    def test_invalid_stretch_bound_rejected(self, grid10):
        with pytest.raises(ConfigurationError):
            DissimilarityPlanner(grid10, stretch_bound=0.5)


class TestPlanning:
    def test_first_route_is_the_shortest_path(self, melbourne_small):
        s, t = 0, melbourne_small.num_nodes - 1
        rs = DissimilarityPlanner(melbourne_small).plan(s, t)
        reference = shortest_path(melbourne_small, s, t)
        assert rs[0].travel_time_s == pytest.approx(reference.travel_time_s)

    def test_theta_enforced_pairwise(self, melbourne_small):
        theta = 0.5
        rs = DissimilarityPlanner(melbourne_small, theta=theta).plan(
            0, melbourne_small.num_nodes - 1
        )
        routes = list(rs)
        for i, a in enumerate(routes):
            for b in routes[i + 1 :]:
                assert dissimilarity(a, b) > theta - 1e-9

    def test_stretch_bound_enforced(self, melbourne_small):
        rs = DissimilarityPlanner(
            melbourne_small, stretch_bound=1.4
        ).plan(0, melbourne_small.num_nodes - 1)
        optimum = rs[0].travel_time_s
        for route in rs:
            assert route.travel_time_s <= 1.4 * optimum + 1e-6

    def test_routes_sorted_by_time(self, melbourne_small):
        # Via-nodes are examined in ascending via-path cost, so the
        # admitted routes come out fastest first.
        rs = DissimilarityPlanner(melbourne_small).plan(
            0, melbourne_small.num_nodes - 1
        )
        times = [route.travel_time_s for route in rs]
        assert times == sorted(times)

    def test_routes_are_simple(self, melbourne_small):
        rs = DissimilarityPlanner(melbourne_small).plan(
            7, melbourne_small.num_nodes - 7
        )
        assert all(route.is_simple() for route in rs)

    def test_diamond_returns_both_braids(self, diamond):
        rs = DissimilarityPlanner(diamond, k=3, theta=0.5).plan(0, 5)
        assert len(rs) >= 2
        assert dissimilarity(rs[0], rs[1]) == 1.0

    def test_high_theta_returns_fewer_routes(self, melbourne_small):
        s, t = 0, melbourne_small.num_nodes - 1
        loose = DissimilarityPlanner(melbourne_small, k=5, theta=0.1)
        strict = DissimilarityPlanner(melbourne_small, k=5, theta=0.9)
        assert len(strict.plan(s, t)) <= len(loose.plan(s, t))

    def test_disconnected_raises(self):
        builder = RoadNetworkBuilder()
        for node_id in range(4):
            builder.add_node(node_id, 0.0, 0.001 * node_id)
        builder.add_edge(0, 1, 100.0, 1.0, bidirectional=True)
        builder.add_edge(2, 3, 100.0, 1.0, bidirectional=True)
        with pytest.raises(DisconnectedError):
            DissimilarityPlanner(builder.build()).plan(0, 3)


def _reference_plan(network, source, target, k=3, theta=0.5,
                    stretch_bound=1.4):
    """SSVP-D+ spelled out: build every via-path, dedupe on its edge set.

    Returns the admitted paths and the planner's four candidate
    counters, computed the slow, obvious way.
    """
    forward = dijkstra(network, source)
    backward = dijkstra(network, target, forward=False)
    limit = (
        float("inf") if stretch_bound is None
        else stretch_bound * forward.distance(target) + 1e-9
    )
    candidates = sorted(
        (forward.distance(v) + backward.distance(v), v)
        for v in range(network.num_nodes)
        if forward.distance(v) + backward.distance(v) <= limit
    )
    counters = dict.fromkeys(
        ("candidates_generated", "candidates_accepted",
         "candidates_pruned", "dissimilarity_evaluations"), 0
    )
    selected, seen = [], set()
    for _, via in candidates:
        if not (forward.reachable(via) and backward.reachable(via)):
            continue
        path = Path.from_edges(
            network,
            forward.edge_ids_to_root(via) + backward.edge_ids_to_root(via),
        )
        counters["candidates_generated"] += 1
        if path.edge_id_set in seen:
            counters["candidates_pruned"] += 1
            continue
        seen.add(path.edge_id_set)
        if not path.is_simple():
            counters["candidates_pruned"] += 1
            continue
        counters["dissimilarity_evaluations"] += len(selected)
        if dissimilarity_to_set(path, selected) > theta:
            counters["candidates_accepted"] += 1
            selected.append(path)
            if len(selected) >= k:
                break
        else:
            counters["candidates_pruned"] += 1
    return selected, counters


def _seeded_pairs(network, count=4):
    rng = random.Random(f"dissimilarity-reference:{network.name}")
    pairs = []
    while len(pairs) < count:
        source = rng.randrange(network.num_nodes)
        target = rng.randrange(network.num_nodes)
        if source != target and dijkstra(
            network, source, target=target
        ).reachable(target):
            pairs.append((source, target))
    return pairs


class TestMatchesReferenceLoop:
    """The planner skips walks and Path objects for via-paths it has
    already seen; that must be exact, counters included."""

    def _assert_matches(self, network, source, target, **params):
        expected, counters = _reference_plan(network, source, target,
                                             **params)
        route_set = DissimilarityPlanner(network, **params).plan(
            source, target
        )
        assert [route.edge_ids for route in route_set] == [
            route.edge_ids for route in expected
        ]
        assert [route.travel_time_s for route in route_set] == [
            route.travel_time_s for route in expected
        ]
        stats = route_set.stats
        assert {name: getattr(stats, name) for name in counters} == counters

    @pytest.mark.parametrize("city", sorted(CITY_BUILDERS))
    def test_study_cities(self, city):
        network = CITY_BUILDERS[city](size="small", seed=0)
        for source, target in _seeded_pairs(network):
            self._assert_matches(network, source, target)

    def test_unbounded_stretch(self, grid10):
        for source, target in _seeded_pairs(grid10, count=3):
            self._assert_matches(
                grid10, source, target, k=5, theta=0.2, stretch_bound=None
            )

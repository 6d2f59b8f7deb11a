"""Tests for the Penalty planner (paper §2.1)."""

import pytest

from repro.algorithms import shortest_path
from repro.core import PenaltyPlanner
from repro.core.search_context import SearchContext
from repro.exceptions import ConfigurationError, DisconnectedError
from repro.graph.builder import RoadNetworkBuilder
from repro.metrics.similarity import similarity


class TestConfiguration:
    def test_penalty_factor_must_exceed_one(self, grid10):
        with pytest.raises(ConfigurationError):
            PenaltyPlanner(grid10, penalty_factor=1.0)

    def test_invalid_dissimilarity_rejected(self, grid10):
        with pytest.raises(ConfigurationError):
            PenaltyPlanner(grid10, min_dissimilarity=1.0)

    def test_invalid_stretch_bound_rejected(self, grid10):
        with pytest.raises(ConfigurationError):
            PenaltyPlanner(grid10, stretch_bound=0.9)

    def test_max_iterations_must_cover_k(self, grid10):
        with pytest.raises(ConfigurationError):
            PenaltyPlanner(grid10, k=5, max_iterations=3)

    def test_paper_default_factor(self, grid10):
        assert PenaltyPlanner(grid10).penalty_factor == 1.4


class TestPlanning:
    def test_first_route_is_the_shortest_path(self, melbourne_small):
        planner = PenaltyPlanner(melbourne_small, k=3)
        rs = planner.plan(0, melbourne_small.num_nodes - 1)
        reference = shortest_path(
            melbourne_small, 0, melbourne_small.num_nodes - 1
        )
        assert rs[0].travel_time_s == pytest.approx(
            reference.travel_time_s
        )

    def test_routes_are_distinct(self, melbourne_small):
        rs = PenaltyPlanner(melbourne_small, k=3).plan(
            0, melbourne_small.num_nodes - 1
        )
        edge_sets = [route.edge_id_set for route in rs]
        assert len(set(edge_sets)) == len(edge_sets)

    def test_reported_times_use_original_weights(self, diamond):
        # Both braids cost 4; penalising the first must not inflate the
        # reported cost of the second.
        rs = PenaltyPlanner(diamond, k=2).plan(0, 5)
        assert [round(r.travel_time_s, 6) for r in rs] == [4.0, 4.0]

    def test_diamond_alternatives_are_the_two_braids(self, diamond):
        rs = PenaltyPlanner(diamond, k=2).plan(0, 5)
        assert similarity(rs[0], rs[1]) == 0.0

    def test_k_routes_on_city(self, melbourne_small):
        rs = PenaltyPlanner(melbourne_small, k=3).plan(
            5, melbourne_small.num_nodes - 5
        )
        assert len(rs) == 3

    def test_dissimilarity_filter_enforced(self, melbourne_small):
        planner = PenaltyPlanner(
            melbourne_small, k=3, min_dissimilarity=0.3, max_iterations=20
        )
        rs = planner.plan(0, melbourne_small.num_nodes - 1)
        for i, a in enumerate(rs):
            for b in list(rs)[i + 1 :]:
                assert similarity(a, b) < 0.7 + 1e-9

    def test_stretch_bound_enforced(self, melbourne_small):
        planner = PenaltyPlanner(
            melbourne_small, k=3, stretch_bound=1.2, max_iterations=20
        )
        rs = planner.plan(0, melbourne_small.num_nodes - 1)
        optimum = rs[0].travel_time_s
        for route in rs:
            assert route.travel_time_s <= 1.2 * optimum + 1e-6

    def test_disconnected_raises(self):
        builder = RoadNetworkBuilder()
        for node_id in range(4):
            builder.add_node(node_id, 0.0, 0.001 * node_id)
        builder.add_edge(0, 1, 100.0, 1.0, bidirectional=True)
        builder.add_edge(2, 3, 100.0, 1.0, bidirectional=True)
        with pytest.raises(DisconnectedError):
            PenaltyPlanner(builder.build()).plan(0, 3)

    def test_single_path_graph_returns_one_route(self):
        builder = RoadNetworkBuilder()
        for node_id in range(3):
            builder.add_node(node_id, 0.0, 0.001 * node_id)
        builder.add_edge(0, 1, 100.0, 1.0, bidirectional=True)
        builder.add_edge(1, 2, 100.0, 1.0, bidirectional=True)
        rs = PenaltyPlanner(builder.build(), k=3).plan(0, 2)
        assert len(rs) == 1


class TestSharedContext:
    @pytest.mark.parametrize("network_name", ["melbourne_small", "diamond"])
    def test_first_search_reuses_the_forward_tree(
        self, request, network_name
    ):
        """Iteration 0 takes the context's forward tree path instead of
        searching; the routes stay exactly those of a context-free plan
        (the diamond's two equal-cost braids pin the tie-break)."""
        network = request.getfixturevalue(network_name)
        source, target = (0, 5) if network_name == "diamond" else (
            0, network.num_nodes - 1
        )
        planner = PenaltyPlanner(network, k=3)
        plain = planner.plan(source, target)
        context = SearchContext(network, source, target)
        context.forward_tree()
        shared = planner.plan(source, target, context=context)
        assert [route.edge_ids for route in shared] == [
            route.edge_ids for route in plain
        ]
        assert [route.travel_time_s for route in shared] == [
            route.travel_time_s for route in plain
        ]
        assert shared.stats.context_tree_hits == 1
        assert shared.stats.nodes_expanded < plain.stats.nodes_expanded


class TestTurnAwarePenalty:
    @pytest.fixture(scope="class")
    def restricted(self):
        from repro.cities import build_city_network_with_restrictions
        from repro.cities.profile import melbourne_profile

        return build_city_network_with_restrictions(
            melbourne_profile(), size="small"
        )

    def test_routes_respect_restrictions(self, restricted):
        network, table = restricted
        planner = PenaltyPlanner(network, k=3, restrictions=table)
        rs = planner.plan(0, network.num_nodes - 1)
        for route in rs:
            for e, f in zip(route.edge_ids, route.edge_ids[1:]):
                assert table.allows(e, f)

    def test_never_faster_than_unrestricted(self, restricted):
        network, table = restricted
        free = PenaltyPlanner(network, k=1).plan(0, network.num_nodes - 1)
        legal = PenaltyPlanner(network, k=1, restrictions=table).plan(
            0, network.num_nodes - 1
        )
        assert legal[0].travel_time_s >= free[0].travel_time_s - 1e-9

    def test_foreign_table_rejected(self, restricted, grid10):
        _, table = restricted
        with pytest.raises(ConfigurationError):
            PenaltyPlanner(grid10, restrictions=table)

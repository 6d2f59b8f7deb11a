"""Tests for the Path value type."""

import pytest

from repro.exceptions import EdgeNotFoundError, GraphError
from repro.graph.path import Path


class TestConstruction:
    def test_from_nodes(self, grid10):
        path = Path.from_nodes(grid10, [0, 1, 2, 12])
        assert path.source == 0
        assert path.target == 12
        assert len(path.edge_ids) == 3

    def test_from_nodes_travel_time(self, grid10):
        per_edge = grid10.edge(0).travel_time_s
        path = Path.from_nodes(grid10, [0, 1, 2])
        assert path.travel_time_s == pytest.approx(2 * per_edge)

    def test_from_nodes_custom_weights(self, grid10):
        weights = [2.0] * grid10.num_edges
        path = Path.from_nodes(grid10, [0, 1, 2], weights)
        assert path.travel_time_s == 4.0

    def test_from_edges_reconstructs_nodes(self, grid10):
        original = Path.from_nodes(grid10, [0, 1, 11, 21])
        rebuilt = Path.from_edges(grid10, original.edge_ids)
        assert rebuilt.nodes == original.nodes

    def test_from_edges_disconnected_sequence_rejected(self, grid10):
        edge_a = grid10.edge_between(0, 1).id
        edge_b = grid10.edge_between(5, 6).id
        with pytest.raises(GraphError):
            Path.from_edges(grid10, [edge_a, edge_b])

    def test_from_edges_empty_rejected(self, grid10):
        with pytest.raises(GraphError):
            Path.from_edges(grid10, [])

    @pytest.mark.parametrize("bad", [-1, -2])
    def test_from_edges_negative_id_rejected(self, grid10, bad):
        # _edges[-1] would silently be the network's last edge.
        with pytest.raises(EdgeNotFoundError):
            Path.from_edges(grid10, [bad])
        last = grid10.edge(grid10.num_edges + bad)
        into_last = grid10.in_edge_ids(last.u)[0]
        with pytest.raises(EdgeNotFoundError):
            Path.from_edges(grid10, [into_last, bad])

    @pytest.mark.parametrize("offset", [0, 1, 1000])
    def test_from_edges_id_past_the_end_rejected(self, grid10, offset):
        with pytest.raises(EdgeNotFoundError):
            Path.from_edges(grid10, [grid10.num_edges + offset])
        with pytest.raises(EdgeNotFoundError):
            Path.from_edges(grid10, [0, grid10.num_edges + offset])

    def test_direct_construction_checks_edge_ids(self, grid10):
        with pytest.raises(EdgeNotFoundError):
            Path(network=grid10, nodes=(0, 1), edge_ids=(-1,),
                 travel_time_s=0.0)

    def test_single_node_walk_rejected(self, grid10):
        with pytest.raises(GraphError):
            Path(network=grid10, nodes=(0,), edge_ids=(), travel_time_s=0.0)


class TestProperties:
    def test_length_m(self, grid10):
        path = Path.from_nodes(grid10, [0, 1, 2])
        assert path.length_m == pytest.approx(1000.0)

    def test_edge_id_set(self, grid10):
        path = Path.from_nodes(grid10, [0, 1, 2])
        assert path.edge_id_set == frozenset(path.edge_ids)

    def test_is_simple_true_for_straight_walk(self, grid10):
        assert Path.from_nodes(grid10, [0, 1, 2]).is_simple()

    def test_is_simple_false_for_backtrack(self, grid10):
        assert not Path.from_nodes(grid10, [0, 1, 0]).is_simple()

    def test_travel_time_minutes_rounds(self, grid10):
        path = Path.from_nodes(grid10, [0, 1, 2])  # 72 s
        assert path.travel_time_minutes() == 1

    def test_travel_time_on_other_weights(self, grid10):
        path = Path.from_nodes(grid10, [0, 1, 2])
        assert path.travel_time_on([10.0] * grid10.num_edges) == 20.0

    def test_coordinates_match_nodes(self, grid10):
        path = Path.from_nodes(grid10, [0, 1])
        assert path.coordinates() == grid10.coordinates([0, 1])

    def test_len_is_node_count(self, grid10):
        assert len(Path.from_nodes(grid10, [0, 1, 2])) == 3


class TestComposition:
    def test_concatenate(self, grid10):
        first = Path.from_nodes(grid10, [0, 1, 2])
        second = Path.from_nodes(grid10, [2, 3, 4])
        joined = first.concatenate(second)
        assert joined.nodes == (0, 1, 2, 3, 4)
        assert joined.travel_time_s == pytest.approx(
            first.travel_time_s + second.travel_time_s
        )

    def test_concatenate_disjoint_rejected(self, grid10):
        first = Path.from_nodes(grid10, [0, 1])
        second = Path.from_nodes(grid10, [5, 6])
        with pytest.raises(GraphError):
            first.concatenate(second)

    def test_concatenate_across_networks_rejected(self, grid10, diamond):
        first = Path.from_nodes(grid10, [0, 1])
        second = Path.from_nodes(diamond, [1, 3])
        with pytest.raises(GraphError):
            first.concatenate(second)

    def test_subpath(self, grid10):
        path = Path.from_nodes(grid10, [0, 1, 2, 3, 4])
        sub = path.subpath(1, 3)
        assert sub.nodes == (1, 2, 3)
        assert sub.edge_ids == path.edge_ids[1:3]

    def test_subpath_invalid_bounds_rejected(self, grid10):
        path = Path.from_nodes(grid10, [0, 1, 2])
        with pytest.raises(GraphError):
            path.subpath(2, 2)
        with pytest.raises(GraphError):
            path.subpath(-1, 1)

    def test_reversed_nodes(self, grid10):
        path = Path.from_nodes(grid10, [0, 1, 2])
        assert path.reversed_nodes() == (2, 1, 0)


class TestIdentity:
    def test_equal_paths(self, grid10):
        assert Path.from_nodes(grid10, [0, 1, 2]) == Path.from_nodes(
            grid10, [0, 1, 2]
        )

    def test_different_paths_unequal(self, grid10):
        assert Path.from_nodes(grid10, [0, 1, 2]) != Path.from_nodes(
            grid10, [0, 10, 20]
        )

    def test_hashable_and_usable_in_sets(self, grid10):
        paths = {
            Path.from_nodes(grid10, [0, 1, 2]),
            Path.from_nodes(grid10, [0, 1, 2]),
        }
        assert len(paths) == 1

    def test_not_equal_to_other_types(self, grid10):
        assert Path.from_nodes(grid10, [0, 1]) != "path"

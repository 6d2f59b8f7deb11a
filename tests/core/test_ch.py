"""Unit tests for the contraction-hierarchy serving backend.

Covers the :class:`~repro.core.ch.CchBackend` query kernel (distances
and unpacked paths against the reference Dijkstra), the
``from_contraction`` / ``from_arrays`` equivalence the snapshot format
relies on, the ``ensure``/``attached`` caching lifecycle, and the
backend-selection module (:mod:`repro.core.backend`) plus the registry
surface (``make_planner(backend=...)``, ``planner_capabilities``).
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.dijkstra import dijkstra
from repro.core.backend import (
    SERVING_BACKENDS,
    active_backend,
    backend_scope,
    resolve_backend,
    validate_backend,
)
from repro.core.ch import (
    CchBackend,
    attached_hierarchy,
    build_hierarchy,
    ensure_hierarchy,
)
from repro.core.registry import (
    DEFAULT_CAPABILITIES,
    make_planner,
    planner_capabilities,
    register_planner,
)
from repro.exceptions import (
    ConfigurationError,
    DisconnectedError,
)
from repro.cities import melbourne
from repro.graph.builder import RoadNetworkBuilder, grid_network
from repro.graph.csr import ensure_csr
from repro.graph.path import Path
from tests.conftest import drop_accelerators

_EPS = 1e-6


def _sample_pairs(network, count=30, seed=0):
    rng = random.Random(f"ch-test:{network.name}:{seed}")
    nodes = list(range(network.num_nodes))
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


# Private networks: these tests attach/detach accelerator structures,
# which must not leak into the session-scoped shared fixtures.
@pytest.fixture(scope="module")
def melbourne_small():
    return melbourne(size="small")


@pytest.fixture(scope="module")
def grid10():
    return grid_network(10, 10)


@pytest.fixture(scope="module")
def hierarchy(melbourne_small):
    return build_hierarchy(melbourne_small)


class TestCchBackendQueries:
    def test_distances_match_dijkstra(self, melbourne_small, hierarchy):
        for source, target in _sample_pairs(melbourne_small):
            tree = dijkstra(melbourne_small, source)
            if not tree.reachable(target):
                with pytest.raises(DisconnectedError):
                    hierarchy.distance(source, target)
                continue
            assert hierarchy.distance(source, target) == pytest.approx(
                tree.distance(target), abs=_EPS
            )

    def test_unpacked_paths_are_valid_and_optimal(
        self, melbourne_small, hierarchy
    ):
        network = melbourne_small
        for source, target in _sample_pairs(network, count=20, seed=1):
            tree = dijkstra(network, source)
            if not tree.reachable(target):
                continue
            nodes = hierarchy.shortest_path_nodes(source, target)
            assert nodes[0] == source and nodes[-1] == target
            path = Path.from_nodes(network, nodes)  # validates edges
            assert path.travel_time_s == pytest.approx(
                tree.distance(target), abs=_EPS
            )

    def test_shortest_path_returns_path_object(
        self, melbourne_small, hierarchy
    ):
        path = hierarchy.shortest_path(0, 100)
        assert path.source == 0 and path.target == 100

    def test_same_source_and_target_rejected(self, hierarchy):
        with pytest.raises(ConfigurationError):
            hierarchy.shortest_path_nodes(7, 7)

    def test_shortcuts_exist_on_real_networks(self, hierarchy):
        assert hierarchy.num_shortcuts > 0
        assert hierarchy.num_arcs > hierarchy.num_shortcuts

    def test_disconnected_pair_raises(self):
        builder = RoadNetworkBuilder(name="two-islands")
        for node_id in range(4):
            builder.add_node(node_id, 0.0, 0.001 * node_id)
        builder.add_edge(0, 1, length_m=100.0, travel_time_s=10.0)
        builder.add_edge(2, 3, length_m=100.0, travel_time_s=10.0)
        network = builder.build()
        backend = build_hierarchy(network)
        with pytest.raises(DisconnectedError):
            backend.shortest_path_nodes(0, 3)


class TestArrayRoundTrip:
    def test_from_arrays_rebuilds_identical_adjacency(
        self, melbourne_small, hierarchy
    ):
        clone = CchBackend.from_arrays(
            melbourne_small,
            hierarchy.rank,
            hierarchy.arc_tails,
            hierarchy.arc_heads,
            hierarchy.arc_weights,
            hierarchy.arc_edge_ids,
            hierarchy.arc_child_up,
            hierarchy.arc_child_down,
        )
        assert clone.up_out == hierarchy.up_out
        assert clone.up_in == hierarchy.up_in
        for source, target in _sample_pairs(melbourne_small, count=5):
            try:
                expected = hierarchy.shortest_path_nodes(source, target)
            except DisconnectedError:
                continue
            assert clone.shortest_path_nodes(source, target) == expected

    def test_mismatched_array_lengths_rejected(self, melbourne_small):
        with pytest.raises(ConfigurationError):
            CchBackend(
                melbourne_small,
                rank=[0],  # wrong length: one entry for n nodes
                arc_tails=[],
                arc_heads=[],
                arc_weights=[],
                arc_edge_ids=[],
                arc_child_up=[],
                arc_child_down=[],
            )


class TestLifecycle:
    def test_ensure_hierarchy_builds_once_and_caches(self, grid10):
        drop_accelerators(grid10)
        assert attached_hierarchy(grid10) is None
        built = ensure_hierarchy(grid10)
        assert attached_hierarchy(grid10) is built
        assert ensure_hierarchy(grid10) is built  # cached, not rebuilt
        assert ensure_csr(grid10).hierarchy is built
        drop_accelerators(grid10)
        assert attached_hierarchy(grid10) is None


class TestBackendSelection:
    def test_serving_backends_are_stable(self):
        assert SERVING_BACKENDS == ("auto", "dijkstra", "alt", "ch")

    def test_validate_rejects_unknown_names(self):
        assert validate_backend("ch") == "ch"
        with pytest.raises(ConfigurationError):
            validate_backend("quantum")

    def test_backend_scope_nests_and_restores(self):
        assert active_backend() == "auto"
        with backend_scope("dijkstra"):
            assert active_backend() == "dijkstra"
            with backend_scope("ch"):
                assert active_backend() == "ch"
            assert active_backend() == "dijkstra"
        assert active_backend() == "auto"

    def test_resolve_auto_prefers_ch_then_alt_then_dijkstra(self, grid10):
        drop_accelerators(grid10)
        assert resolve_backend(grid10, "auto") == "dijkstra"
        from repro.core.alt import ensure_landmarks

        ensure_landmarks(grid10, count=2)
        assert resolve_backend(grid10, "auto") == "alt"
        ensure_hierarchy(grid10)
        assert resolve_backend(grid10, "auto") == "ch"
        drop_accelerators(grid10)

    def test_explicit_backend_without_structure_rejected(self, grid10):
        drop_accelerators(grid10)
        with pytest.raises(ConfigurationError):
            resolve_backend(grid10, "ch")
        with pytest.raises(ConfigurationError):
            resolve_backend(grid10, "alt")
        assert resolve_backend(grid10, "dijkstra") == "dijkstra"


class TestRegistrySurface:
    def test_planner_capabilities_exposed(self):
        caps = planner_capabilities("ChViaNode")
        assert caps["requires_preprocessing"] is True
        assert caps["point_to_point_backend"] == "ch"
        default = planner_capabilities("Yen")
        assert default["requires_preprocessing"] is False
        assert default["point_to_point_backend"] == "dijkstra"
        assert set(default) == set(DEFAULT_CAPABILITIES)

    def test_make_planner_backend_kwarg(self, melbourne_small):
        planner = make_planner("ViaNode", melbourne_small, backend="ch")
        assert planner.backend == "ch"
        # Explicit CH backend preprocesses the network eagerly.
        assert attached_hierarchy(melbourne_small) is not None

    def test_make_planner_rejects_bad_backend(self, melbourne_small):
        with pytest.raises(ConfigurationError):
            make_planner("ViaNode", melbourne_small, backend="nope")

    def test_auto_backend_preprocesses_for_ch_planners(
        self, melbourne_small
    ):
        planner = make_planner("ChViaNode", melbourne_small)
        assert planner.backend == "auto"
        assert attached_hierarchy(melbourne_small) is not None

    def test_register_rejects_unknown_capability_keys(self):
        from repro.core.via_node import ViaNodePlanner

        with pytest.raises(ConfigurationError):
            register_planner(
                "BadCaps",
                ViaNodePlanner,
                description="unknown capability key",
                capabilities={"supports_teleportation": True},
            )

    def test_plan_backend_override_per_call(self, melbourne_small):
        ensure_hierarchy(melbourne_small)
        planner = make_planner("Plateaus", melbourne_small)
        by_ch = planner.plan(0, 100, backend="ch")
        by_dijkstra = planner.plan(0, 100, backend="dijkstra")
        assert by_ch == by_dijkstra
        with pytest.raises(ConfigurationError):
            planner.plan(0, 100, backend="warp")

"""Property-based tests for the CSR kernel, ALT heuristic and snapshots.

Fuzzed counterparts of the seeded differential suite
(``tests/core/test_csr_differential.py``): on randomly generated
strongly connected networks,

- the CSR kernel's shortest-path trees equal the adjacency-list
  kernel's trees entry-for-entry (distances *and* parent edges, both
  directions, with and without custom weight vectors);
- the ALT potential is admissible (``h(v) <= dist(v, target)`` for
  every node with a finite distance) and the goal-directed search
  returns a path of exactly the Dijkstra shortest-path cost;
- binary snapshots round-trip every node and edge losslessly through
  ``io.BytesIO``.
"""

import io
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import dijkstra
from repro.core.alt import (
    alt_shortest_path_nodes,
    build_landmarks,
    ensure_landmarks,
)
from repro.graph.builder import RoadNetworkBuilder
from repro.graph.csr import (
    csr_dijkstra,
    ensure_csr,
    load_snapshot,
    save_snapshot,
)


@st.composite
def road_networks(draw):
    """A strongly connected random network of 6-20 nodes."""
    n = draw(st.integers(min_value=6, max_value=20))
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(f"csrnet:{rng_seed}")
    builder = RoadNetworkBuilder(name=f"csr-prop-{rng_seed}")
    for node_id in range(n):
        builder.add_node(
            node_id,
            rng.uniform(-0.05, 0.05),
            rng.uniform(-0.05, 0.05),
        )
    # Ring guarantees strong connectivity.
    for node_id in range(n):
        builder.add_edge(
            node_id,
            (node_id + 1) % n,
            length_m=rng.uniform(50.0, 500.0),
            travel_time_s=rng.uniform(1.0, 50.0),
        )
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            builder.add_edge(
                u,
                v,
                length_m=rng.uniform(50.0, 500.0),
                travel_time_s=rng.uniform(1.0, 50.0),
            )
    return builder.build()


query = st.tuples(
    st.integers(min_value=0, max_value=1_000_000),
    st.integers(min_value=0, max_value=1_000_000),
)


def pick_pair(network, raw):
    s = raw[0] % network.num_nodes
    t = raw[1] % network.num_nodes
    if s == t:
        t = (t + 1) % network.num_nodes
    return s, t


common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCsrKernelEquivalence:
    @common_settings
    @given(road_networks(), query, st.booleans())
    def test_trees_identical(self, network, raw, forward):
        """dist and parent_edge equal the pure kernel's, both ways."""
        root, _ = pick_pair(network, raw)
        csr = ensure_csr(network)
        pure = dijkstra(network, root, forward=forward)
        flat = csr_dijkstra(network, csr, root, forward=forward)
        assert flat.dist == pure.dist
        assert flat.parent_edge == pure.parent_edge

    @common_settings
    @given(road_networks(), query, st.integers(min_value=0, max_value=9999))
    def test_trees_identical_custom_weights(self, network, raw, wseed):
        """Equality holds for arbitrary non-negative weight vectors."""
        root, _ = pick_pair(network, raw)
        rng = random.Random(f"csr-weights:{wseed}")
        weights = [rng.uniform(0.0, 100.0) for _ in range(network.num_edges)]
        csr = ensure_csr(network)
        pure = dijkstra(network, root, weights=weights)
        flat = csr_dijkstra(network, csr, root, weights=weights)
        assert flat.dist == pure.dist
        assert flat.parent_edge == pure.parent_edge

    @common_settings
    @given(road_networks(), query)
    def test_target_pruned_tree_agrees_on_target(self, network, raw):
        """Early-exit trees agree with the full tree at the target."""
        s, t = pick_pair(network, raw)
        csr = ensure_csr(network)
        full = dijkstra(network, s)
        pruned = csr_dijkstra(network, csr, s, target=t)
        assert pruned.distance(t) == pytest.approx(full.distance(t))


class TestAltProperties:
    @common_settings
    @given(road_networks(), query)
    def test_potential_is_admissible(self, network, raw):
        """h(v) <= dist(v, t) for every v that can reach the target."""
        _, target = pick_pair(network, raw)
        csr = ensure_csr(network)
        table = build_landmarks(network, count=4, seed=0)
        h = table.potential(target)
        to_target = csr_dijkstra(network, csr, target, forward=False)
        for v in range(network.num_nodes):
            d = to_target.dist[v]
            if d == math.inf:
                continue
            assert h(v) <= d + 1e-9, (
                f"inadmissible bound at node {v}: h={h(v)} > dist={d}"
            )

    @common_settings
    @given(road_networks(), query)
    def test_alt_path_cost_equals_dijkstra(self, network, raw):
        """Goal-directed search never returns a costlier path."""
        s, t = pick_pair(network, raw)
        ensure_landmarks(network, count=4)
        csr = ensure_csr(network)
        nodes = alt_shortest_path_nodes(network, csr, s, t)
        assert nodes[0] == s and nodes[-1] == t
        assert network.path_travel_time(nodes) == pytest.approx(
            dijkstra(network, s, target=t).distance(t)
        )


class TestSnapshotRoundTrip:
    @common_settings
    @given(road_networks())
    def test_lossless_round_trip(self, network):
        """Every node and edge survives the binary format unchanged."""
        buffer = io.BytesIO()
        save_snapshot(network, buffer)
        buffer.seek(0)
        restored = load_snapshot(buffer)
        assert restored.name == network.name
        assert list(restored.nodes()) == list(network.nodes())
        assert list(restored.edges()) == list(network.edges())

    @common_settings
    @given(road_networks(), query)
    def test_restored_network_routes_identically(self, network, raw):
        """Shortest-path distances are preserved across a round trip."""
        s, t = pick_pair(network, raw)
        buffer = io.BytesIO()
        save_snapshot(network, buffer)
        buffer.seek(0)
        restored = load_snapshot(buffer)
        original = dijkstra(network, s)
        reloaded = dijkstra(restored, s)
        assert reloaded.dist == original.dist

"""Property-based tests for the contraction-hierarchy backend.

Fuzzed counterparts of ``tests/core/test_ch.py``: on randomly
generated strongly connected networks,

- the CH bidirectional search's distance equals the reference Dijkstra
  distance for every sampled pair, and the unpacked original-edge path
  prices out to exactly that distance on the default weights;
- binary snapshots round-trip an attached hierarchy losslessly through
  ``io.BytesIO`` — the restored backend answers every sampled query
  with the same node sequence, without re-contracting.
"""

import io
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import dijkstra
from repro.core.ch import build_hierarchy, ensure_hierarchy
from repro.graph.builder import RoadNetworkBuilder
from repro.graph.csr import ensure_csr, load_snapshot, save_snapshot


@st.composite
def road_networks(draw):
    """A strongly connected random network of 6-20 nodes."""
    n = draw(st.integers(min_value=6, max_value=20))
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(f"chnet:{rng_seed}")
    builder = RoadNetworkBuilder(name=f"ch-prop-{rng_seed}")
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


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(network=road_networks(), pair=query)
def test_ch_distance_and_unpacked_path_match_dijkstra(network, pair):
    n = network.num_nodes
    source, target = pair[0] % n, pair[1] % n
    if source == target:
        target = (target + 1) % n
    hierarchy = build_hierarchy(network)
    expected = dijkstra(network, source).distance(target)

    distance = hierarchy.distance(source, target)
    assert distance == pytest.approx(expected, rel=1e-9, abs=1e-9)

    nodes = hierarchy.shortest_path_nodes(source, target)
    assert nodes[0] == source and nodes[-1] == target
    path = hierarchy.shortest_path(source, target)
    assert path.travel_time_s == pytest.approx(
        expected, rel=1e-9, abs=1e-9
    )
    # The unpacked edges price out to the CH distance exactly.
    weights = network.default_weights()
    unpacked_cost = sum(weights[edge_id] for edge_id in path.edge_ids)
    assert unpacked_cost == pytest.approx(distance, rel=1e-9, abs=1e-9)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(network=road_networks(), pair=query)
def test_snapshot_round_trips_hierarchy_losslessly(network, pair):
    hierarchy = ensure_hierarchy(network)
    buffer = io.BytesIO()
    save_snapshot(network, buffer)
    buffer.seek(0)
    restored = load_snapshot(buffer)

    csr = ensure_csr(restored)
    assert csr.hierarchy is not None
    clone = csr.hierarchy
    assert clone.num_arcs == hierarchy.num_arcs
    assert clone.num_shortcuts == hierarchy.num_shortcuts
    assert list(clone.rank) == list(hierarchy.rank)
    assert clone.up_out == hierarchy.up_out
    assert clone.up_in == hierarchy.up_in

    n = network.num_nodes
    source, target = pair[0] % n, pair[1] % n
    if source == target:
        target = (target + 1) % n
    assert clone.shortest_path_nodes(
        source, target
    ) == hierarchy.shortest_path_nodes(source, target)

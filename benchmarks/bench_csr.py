"""CSR kernel + ALT landmark acceleration benchmarks.

Four claims, each pinned by an assertion so a regression fails the
bench rather than silently shipping a slower kernel:

1. route sets are identical with and without the ALT landmark table
   attached, for every registered planner;
2. the ALT goal-directed kernel expands at least 2x fewer nodes than
   plain bidirectional search (and than plain Dijkstra) on the study
   city's point-to-point queries;
3. accelerated point-to-point queries are wall-clock faster than the
   pure-Python reference Dijkstra;
4. the binary snapshot round-trips the network losslessly and loads
   faster than the JSON path.

The artifact (``bench_csr.txt``) and a snapshot of the bench network
(``<city>_<size>.snap``, untracked) land in ``benchmarks/output/``.
"""

import io
import json
import random
import time

import pytest

from repro.algorithms.bidirectional import bidirectional_dijkstra
from repro.algorithms.dijkstra import (
    dijkstra,
    shortest_path_nodes,
    unwind_nodes,
)
from repro.cities import CITY_BUILDERS
from repro.core.alt import ensure_landmarks
from repro.core.registry import available_planners, make_planner
from repro.graph.csr import (
    csr_dijkstra,
    ensure_csr,
    load_snapshot,
    save_snapshot,
)
from repro.graph.serialize import network_from_dict, network_to_dict
from repro.observability.search import collect_search_stats

from conftest import (
    CITY,
    OUTPUT_DIR,
    SEED,
    SIZE,
    drop_accelerators,
    write_artifact,
)
from telemetry import BenchTelemetry

#: Landmarks for the bench: the paper-scale networks justify a bigger
#: table than the library default of 8.
NUM_LANDMARKS = 16

NUM_PAIRS = 40

TELEMETRY = BenchTelemetry("bench_csr")


@pytest.fixture(scope="module", autouse=True)
def _telemetry():
    yield
    TELEMETRY.write()


@pytest.fixture(scope="module")
def network():
    """A private bench network — CSR attach/detach must not leak into
    the session-scoped study fixtures other bench modules share."""
    return CITY_BUILDERS[CITY](size=SIZE, seed=SEED)


@pytest.fixture(scope="module")
def pairs(network):
    """Routable query pairs, seeded, reused by every scenario."""
    rng = random.Random(f"bench-csr:{SEED}")
    found = []
    while len(found) < NUM_PAIRS:
        s = rng.randrange(network.num_nodes)
        t = rng.randrange(network.num_nodes)
        if s == t:
            continue
        tree = dijkstra(network, s, target=t)
        if tree.reachable(t):
            found.append((s, t))
    return found


def _with_csr(network):
    csr = ensure_csr(network)
    ensure_landmarks(network, count=NUM_LANDMARKS)
    return csr


def test_route_sets_identical_across_kernels(network, pairs):
    """Every registered planner returns the same routes with and
    without the ALT landmark table."""
    drop_accelerators(network)
    plain = {}
    for name in available_planners():
        planner = make_planner(name, network)
        plain[name] = [
            tuple(route.nodes) for s, t in pairs[:5]
            for route in planner.plan(s, t)
        ]
    _with_csr(network)
    for name in available_planners():
        planner = make_planner(name, network)
        accelerated = [
            tuple(route.nodes) for s, t in pairs[:5]
            for route in planner.plan(s, t)
        ]
        assert accelerated == plain[name], name
    drop_accelerators(network)


def test_bench_alt_expansions(network, pairs):
    """ALT expands >= 2x fewer nodes than bidirectional (and Dijkstra)."""
    drop_accelerators(network)
    dijkstra_expanded = 0
    bidirectional_expanded = 0
    for s, t in pairs:
        with collect_search_stats() as stats:
            shortest_path_nodes(network, s, t)
        dijkstra_expanded += stats.nodes_expanded
        with collect_search_stats() as stats:
            bidirectional_dijkstra(network, s, t)
        bidirectional_expanded += stats.nodes_expanded
    _with_csr(network)
    alt_expanded = 0
    alt_pruned = 0
    for s, t in pairs:
        with collect_search_stats() as stats:
            shortest_path_nodes(network, s, t)
        alt_expanded += stats.nodes_expanded
        alt_pruned += stats.heuristic_prunes
    drop_accelerators(network)
    assert alt_expanded * 2 <= bidirectional_expanded, (
        f"ALT expanded {alt_expanded} nodes vs bidirectional's "
        f"{bidirectional_expanded}; want at least a 2x reduction"
    )
    assert alt_expanded * 2 <= dijkstra_expanded
    # Node-expansion ratios are deterministic (seeded pairs, seeded
    # landmarks) so they gate tightly at the CLI default threshold.
    TELEMETRY.add_metric(
        "alt_expansion_reduction_vs_bidirectional",
        round(bidirectional_expanded / alt_expanded, 2), unit="x",
        direction="higher",
    )
    TELEMETRY.add_metric(
        "alt_expansion_reduction_vs_dijkstra",
        round(dijkstra_expanded / alt_expanded, 2), unit="x",
        direction="higher",
    )
    write_artifact(
        "bench_csr_expansions.txt",
        json.dumps(
            {
                "city": CITY,
                "size": SIZE,
                "pairs": len(pairs),
                "landmarks": NUM_LANDMARKS,
                "nodes_expanded": {
                    "dijkstra": dijkstra_expanded,
                    "bidirectional": bidirectional_expanded,
                    "alt": alt_expanded,
                },
                "heuristic_prunes": alt_pruned,
                "reduction_vs_bidirectional": round(
                    bidirectional_expanded / alt_expanded, 2
                ),
                "reduction_vs_dijkstra": round(
                    dijkstra_expanded / alt_expanded, 2
                ),
            },
            indent=2,
        ),
    )


def test_bench_point_to_point_wall_clock(network, pairs):
    """Accelerated s-t queries beat the pure kernel on wall clock."""
    drop_accelerators(network)
    for s, t in pairs:  # warm both code paths before timing
        unwind_nodes(network, dijkstra(network, s, target=t), s, t)
    started = time.perf_counter()
    for s, t in pairs:
        unwind_nodes(network, dijkstra(network, s, target=t), s, t)
    pure_s = time.perf_counter() - started
    csr = _with_csr(network)
    for s, t in pairs:
        shortest_path_nodes(network, s, t)
    started = time.perf_counter()
    for s, t in pairs:
        shortest_path_nodes(network, s, t)
    alt_s = time.perf_counter() - started
    started = time.perf_counter()
    for s, t in pairs:
        bidirectional_dijkstra(network, s, t)
    bidirectional_s = time.perf_counter() - started
    started = time.perf_counter()
    for s, _t in pairs[:10]:
        dijkstra(network, s)
    tree_pure_s = time.perf_counter() - started
    started = time.perf_counter()
    for s, _t in pairs[:10]:
        csr_dijkstra(network, csr, s)
    tree_csr_s = time.perf_counter() - started
    drop_accelerators(network)
    assert alt_s < pure_s, (
        f"ALT point-to-point took {alt_s * 1000:.1f} ms vs the pure "
        f"kernel's {pure_s * 1000:.1f} ms; the acceleration must win"
    )
    TELEMETRY.add_metric(
        "p2p_speedup_vs_dijkstra", round(pure_s / alt_s, 2), unit="x",
        direction="higher", threshold=0.5,
    )
    TELEMETRY.add_metric(
        "full_tree_speedup", round(tree_pure_s / tree_csr_s, 2),
        unit="x", direction="higher", threshold=0.5,
    )
    write_artifact(
        "bench_csr.txt",
        json.dumps(
            {
                "city": CITY,
                "size": SIZE,
                "pairs": len(pairs),
                "landmarks": NUM_LANDMARKS,
                "p2p_ms": {
                    "dijkstra": round(pure_s * 1000, 2),
                    "bidirectional": round(bidirectional_s * 1000, 2),
                    "alt": round(alt_s * 1000, 2),
                },
                "p2p_speedup_vs_dijkstra": round(pure_s / alt_s, 2),
                "full_tree_ms": {
                    "dijkstra": round(tree_pure_s * 1000, 2),
                    "csr": round(tree_csr_s * 1000, 2),
                },
                "full_tree_speedup": round(tree_pure_s / tree_csr_s, 2),
            },
            indent=2,
        ),
    )


def test_bench_snapshot_round_trip(network):
    """Binary snapshots round-trip losslessly and out-load JSON."""
    buffer = io.BytesIO()
    started = time.perf_counter()
    save_snapshot(network, buffer)
    snapshot_save_s = time.perf_counter() - started
    started = time.perf_counter()
    buffer.seek(0)
    restored = load_snapshot(buffer)
    snapshot_load_s = time.perf_counter() - started

    started = time.perf_counter()
    document = json.dumps(network_to_dict(network))
    json_save_s = time.perf_counter() - started
    started = time.perf_counter()
    from_json = network_from_dict(json.loads(document))
    json_load_s = time.perf_counter() - started

    assert list(restored.nodes()) == list(network.nodes())
    assert list(restored.edges()) == list(network.edges())
    assert restored.name == network.name
    assert list(from_json.nodes()) == list(network.nodes())
    assert snapshot_load_s < json_load_s, (
        f"snapshot load took {snapshot_load_s * 1000:.1f} ms vs JSON's "
        f"{json_load_s * 1000:.1f} ms"
    )

    snapshot_path = OUTPUT_DIR / f"{CITY}_{SIZE}.snap"
    save_snapshot(network, snapshot_path)
    write_artifact(
        "bench_csr_snapshot.txt",
        json.dumps(
            {
                "city": CITY,
                "size": SIZE,
                "nodes": network.num_nodes,
                "edges": network.num_edges,
                "snapshot_bytes": len(buffer.getvalue()),
                "json_bytes": len(document),
                "save_ms": {
                    "snapshot": round(snapshot_save_s * 1000, 2),
                    "json": round(json_save_s * 1000, 2),
                },
                "load_ms": {
                    "snapshot": round(snapshot_load_s * 1000, 2),
                    "json": round(json_load_s * 1000, 2),
                },
                "load_speedup": round(json_load_s / snapshot_load_s, 2),
            },
            indent=2,
        ),
    )

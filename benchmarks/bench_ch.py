"""Contraction-hierarchy serving benchmarks.

Four claims, each pinned by an assertion so a regression fails the
bench rather than silently shipping a slower hierarchy:

1. the ``"ch"`` point-to-point backend returns routes identical to the
   reference Dijkstra backend on sampled study-city queries;
2. CH point-to-point queries beat the ALT-accelerated kernel (and the
   pure kernel) on wall clock;
3. the CH-via-node alternatives planner beats the ALT-accelerated
   via-node baseline by at least :data:`ALTERNATIVES_SPEEDUP_FLOOR`
   (10x at the pinned medium scale — the headline number README
   quotes);
4. a ``--with-ch`` snapshot restores the hierarchy faster than
   re-contracting it from scratch.

The artifacts (``bench_ch.txt`` plus the p2p and snapshot side files)
land in ``benchmarks/output/``.
"""

import io
import json
import random
import time

import pytest

from repro.algorithms.dijkstra import (
    dijkstra,
    shortest_path_nodes,
    unwind_nodes,
)
from repro.cities import CITY_BUILDERS
from repro.core.alt import ensure_landmarks
from repro.core.backend import backend_scope
from repro.core.ch import attached_hierarchy, build_hierarchy, ensure_hierarchy
from repro.core.registry import make_planner
from repro.graph.csr import load_snapshot, save_snapshot

from conftest import CITY, SEED, SIZE, drop_accelerators, write_artifact
from telemetry import BenchTelemetry

#: Landmark count matching bench_csr's ALT baseline configuration.
NUM_LANDMARKS = 16

TELEMETRY = BenchTelemetry("bench_ch")


@pytest.fixture(scope="module", autouse=True)
def _telemetry():
    yield
    TELEMETRY.write()

NUM_PAIRS = 30

#: Alternative-query pairs are fewer: the ALT-accelerated baseline
#: plans with two full shortest-path trees per query.
NUM_ALT_PAIRS = 12

#: The wall-clock floor asserted for ChViaNode vs the ALT-accelerated
#: via-node baseline.  The 10x headline holds from the pinned medium
#: scale up; CI's small-network smoke run only checks CH wins at all.
ALTERNATIVES_SPEEDUP_FLOOR = 10.0 if SIZE != "small" else 1.0

#: Timing loops per kernel; the minimum is reported (best-of-N is the
#: standard de-noised estimator for short wall-clock loops).
REPEATS = 5


def _best_of(loop, repeats=REPEATS):
    """Minimum wall-clock seconds of ``loop()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def network():
    """A private bench network — accelerator attach/detach must not
    leak into the session-scoped study fixtures other modules share."""
    return CITY_BUILDERS[CITY](size=SIZE, seed=SEED)


@pytest.fixture(scope="module")
def pairs(network):
    rng = random.Random(f"bench-ch:{SEED}")
    found = []
    while len(found) < NUM_PAIRS:
        s = rng.randrange(network.num_nodes)
        t = rng.randrange(network.num_nodes)
        if s == t:
            continue
        if dijkstra(network, s, target=t).reachable(t):
            found.append((s, t))
    return found


def test_ch_routes_identical_to_dijkstra(network, pairs):
    """Claim 1: the CH backend changes the work, never the answer."""
    ensure_hierarchy(network)
    for s, t in pairs:
        with backend_scope("dijkstra"):
            reference = shortest_path_nodes(network, s, t)
        with backend_scope("ch"):
            hierarchical = shortest_path_nodes(network, s, t)
        assert hierarchical == reference, (s, t)
    drop_accelerators(network)


def test_bench_ch_point_to_point(network, pairs):
    """Claim 2: CH p2p beats ALT p2p (and pure Dijkstra) on the clock."""
    def all_pairs():
        for s, t in pairs:
            shortest_path_nodes(network, s, t)

    def pure_pairs():
        for s, t in pairs:
            unwind_nodes(network, dijkstra(network, s, target=t), s, t)

    drop_accelerators(network)
    pure_pairs()  # warm the pure reference kernel before timing
    pure_s = _best_of(pure_pairs)

    ensure_landmarks(network, count=NUM_LANDMARKS)
    with backend_scope("alt"):
        all_pairs()
        alt_s = _best_of(all_pairs)

    contraction_started = time.perf_counter()
    ensure_hierarchy(network)
    contraction_s = time.perf_counter() - contraction_started
    with backend_scope("ch"):
        all_pairs()
        ch_s = _best_of(all_pairs)
    drop_accelerators(network)

    assert ch_s < alt_s, (
        f"CH point-to-point took {ch_s * 1000:.1f} ms vs ALT's "
        f"{alt_s * 1000:.1f} ms; the hierarchy must win"
    )
    assert ch_s < pure_s
    # Speedup ratios are same-box comparisons and gate at 50%;
    # absolute millisecond numbers are machine-dependent and only
    # catch gross (4x) regressions.
    TELEMETRY.add_metric(
        "p2p_speedup_vs_dijkstra", round(pure_s / ch_s, 2), unit="x",
        direction="higher", threshold=0.5,
    )
    TELEMETRY.add_metric(
        "p2p_speedup_vs_alt", round(alt_s / ch_s, 2), unit="x",
        direction="higher", threshold=0.5,
    )
    TELEMETRY.add_metric(
        "p2p_ch_ms", round(ch_s * 1000, 3), unit="ms",
        direction="lower", threshold=3.0,
    )
    TELEMETRY.add_metric(
        "contraction_ms", round(contraction_s * 1000, 2), unit="ms",
    )
    write_artifact(
        "bench_ch_p2p.txt",
        json.dumps(
            {
                "city": CITY,
                "size": SIZE,
                "pairs": len(pairs),
                "landmarks": NUM_LANDMARKS,
                "contraction_ms": round(contraction_s * 1000, 2),
                "p2p_ms": {
                    "dijkstra": round(pure_s * 1000, 2),
                    "alt": round(alt_s * 1000, 2),
                    "ch": round(ch_s * 1000, 2),
                },
                "speedup_vs_alt": round(alt_s / ch_s, 2),
                "speedup_vs_dijkstra": round(pure_s / ch_s, 2),
            },
            indent=2,
        ),
    )


def test_bench_ch_alternatives(network, pairs):
    """Claim 3: CH-via-node alternatives >= 10x faster than the ALT
    via-node baseline at the pinned scale."""
    alt_pairs = pairs[:NUM_ALT_PAIRS]
    drop_accelerators(network)
    ensure_landmarks(network, count=NUM_LANDMARKS)
    baseline = make_planner("ViaNode", network)
    for s, t in alt_pairs:  # warm before timing, as bench_csr does
        baseline.plan(s, t)
    baseline_routes = [len(baseline.plan(s, t)) for s, t in alt_pairs]
    baseline_s = _best_of(
        lambda: [baseline.plan(s, t) for s, t in alt_pairs]
    )

    via_ch = make_planner("ChViaNode", network)
    for s, t in alt_pairs:  # warm: contraction + per-root space memo
        via_ch.plan(s, t)
    ch_routes = [len(via_ch.plan(s, t)) for s, t in alt_pairs]
    ch_s = _best_of(lambda: [via_ch.plan(s, t) for s, t in alt_pairs])
    drop_accelerators(network)

    assert all(count >= 1 for count in ch_routes)
    speedup = baseline_s / ch_s
    assert speedup >= ALTERNATIVES_SPEEDUP_FLOOR, (
        f"ChViaNode took {ch_s * 1000:.1f} ms vs the ALT via-node "
        f"baseline's {baseline_s * 1000:.1f} ms ({speedup:.1f}x; "
        f"floor {ALTERNATIVES_SPEEDUP_FLOOR}x)"
    )
    TELEMETRY.add_metric(
        "alternatives_speedup", round(speedup, 2), unit="x",
        direction="higher", threshold=0.5,
    )
    TELEMETRY.add_metric(
        "alternatives_ch_per_query_ms",
        round(ch_s * 1000 / len(alt_pairs), 3), unit="ms",
        direction="lower", threshold=3.0,
    )
    write_artifact(
        "bench_ch.txt",
        json.dumps(
            {
                "city": CITY,
                "size": SIZE,
                "pairs": len(alt_pairs),
                "alternatives_ms": {
                    "via_node_alt": round(baseline_s * 1000, 2),
                    "via_node_ch": round(ch_s * 1000, 2),
                },
                "per_query_ms": {
                    "via_node_alt": round(
                        baseline_s * 1000 / len(alt_pairs), 2
                    ),
                    "via_node_ch": round(ch_s * 1000 / len(alt_pairs), 2),
                },
                "routes_returned": {
                    "via_node_alt": sum(baseline_routes),
                    "via_node_ch": sum(ch_routes),
                },
                "speedup": round(speedup, 2),
                "speedup_floor": ALTERNATIVES_SPEEDUP_FLOOR,
            },
            indent=2,
        ),
    )


def test_bench_snapshot_with_ch(network):
    """Claim 4: --with-ch snapshots restore faster than re-contracting."""
    drop_accelerators(network)
    contraction_started = time.perf_counter()
    hierarchy = ensure_hierarchy(network)
    contraction_s = time.perf_counter() - contraction_started

    buffer = io.BytesIO()
    started = time.perf_counter()
    save_snapshot(network, buffer)
    save_s = time.perf_counter() - started
    drop_accelerators(network)

    buffer.seek(0)
    started = time.perf_counter()
    restored = load_snapshot(buffer)
    load_s = time.perf_counter() - started
    clone = attached_hierarchy(restored)
    assert clone is not None
    assert clone.num_arcs == hierarchy.num_arcs
    assert load_s < contraction_s, (
        f"snapshot load took {load_s * 1000:.1f} ms vs re-contraction's "
        f"{contraction_s * 1000:.1f} ms"
    )
    TELEMETRY.add_metric(
        "snapshot_load_speedup", round(contraction_s / load_s, 2),
        unit="x", direction="higher", threshold=1.0,
    )
    TELEMETRY.add_metric(
        "snapshot_bytes", len(buffer.getvalue()), unit="bytes",
    )
    write_artifact(
        "bench_ch_snapshot.txt",
        json.dumps(
            {
                "city": CITY,
                "size": SIZE,
                "nodes": network.num_nodes,
                "edges": network.num_edges,
                "arcs": hierarchy.num_arcs,
                "shortcuts": hierarchy.num_shortcuts,
                "snapshot_bytes": len(buffer.getvalue()),
                "contract_ms": round(contraction_s * 1000, 2),
                "save_ms": round(save_s * 1000, 2),
                "load_ms": round(load_s * 1000, 2),
                "load_speedup_vs_contract": round(
                    contraction_s / load_s, 2
                ),
            },
            indent=2,
        ),
    )

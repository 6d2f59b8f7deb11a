"""Yen's k-shortest loopless paths (paper §2.4).

The classic baseline the paper warns about: the k shortest paths "are
all expected to be very similar to each other", so Yen's algorithm is
unsuitable for alternatives *if applied trivially* — which is exactly
why it is worth having here, both as the engine behind the
limited-overlap baseline (:mod:`repro.core.ksplo`) and as the control
condition in the diversity benchmarks.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Set, Tuple

from repro.exceptions import ConfigurationError, DisconnectedError
from repro.cancellation import DEADLINE_CHECK_MASK, active_deadline
from repro.core.base import DEFAULT_K, AlternativeRoutePlanner
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.observability.search import SearchStats, active_search_stats


def _shortest_with_bans(
    network: RoadNetwork,
    source: int,
    target: int,
    weights: Sequence[float],
    banned_edges: Set[int],
    banned_nodes: Set[int],
) -> Optional[List[int]]:
    """Dijkstra that ignores banned edges/nodes; returns edge ids or None."""
    n = network.num_nodes
    dist = [math.inf] * n
    parent = [-1] * n
    settled = [False] * n
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    edges = network._edges
    adjacency = network._out
    expanded = 0
    relaxed = 0
    deadline = active_deadline()
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        expanded += 1
        if deadline is not None and not (expanded & DEADLINE_CHECK_MASK):
            deadline.check()
        if u == target:
            break
        for edge_id in adjacency[u]:
            if edge_id in banned_edges:
                continue
            edge = edges[edge_id]
            v = edge.v
            if v in banned_nodes or settled[v]:
                continue
            relaxed += 1
            nd = d + weights[edge_id]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = edge_id
                heapq.heappush(heap, (nd, v))
    stats = active_search_stats()
    if stats is not None:
        stats.nodes_expanded += expanded
        stats.edges_relaxed += relaxed
    if not settled[target]:
        return None
    path_edges: List[int] = []
    current = target
    while current != source:
        edge_id = parent[current]
        path_edges.append(edge_id)
        current = edges[edge_id].u
    path_edges.reverse()
    return path_edges


def yen_k_shortest_paths(
    network: RoadNetwork,
    source: int,
    target: int,
    k: int,
    weights: Optional[Sequence[float]] = None,
) -> List[Path]:
    """Return up to ``k`` shortest loopless s-t paths, shortest first.

    Standard Yen's algorithm with a candidate heap; ties are broken by
    node sequence for determinism.  Raises
    :class:`DisconnectedError` when no path exists at all; returns fewer
    than ``k`` paths when the graph does not contain that many simple
    paths.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if source == target:
        raise ConfigurationError("source and target must differ")
    w = network.default_weights() if weights is None else weights

    stats = active_search_stats() or SearchStats()
    first_edges = _shortest_with_bans(
        network, source, target, w, set(), set()
    )
    if first_edges is None:
        raise DisconnectedError(source, target)
    stats.candidates_generated += 1
    stats.candidates_accepted += 1
    results: List[Path] = [Path.from_edges(network, first_edges, w)]
    # Candidate heap entries: (cost, node sequence, edge ids).
    candidates: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []
    seen_candidates: Set[Tuple[int, ...]] = {results[0].edge_ids}

    deadline = active_deadline()
    while len(results) < k:
        previous = results[-1]
        prev_nodes = previous.nodes
        for spur_index in range(len(prev_nodes) - 1):
            # Each spur search is a full Dijkstra; check between them so
            # small-network searches (whose inner strided checks may
            # never fire) still honour the deadline.
            if deadline is not None:
                deadline.check()
            spur_node = prev_nodes[spur_index]
            root_edge_ids = previous.edge_ids[:spur_index]
            root_cost = sum(w[e] for e in root_edge_ids)

            banned_edges: Set[int] = set()
            for path in results:
                if path.nodes[: spur_index + 1] == prev_nodes[: spur_index + 1]:
                    if spur_index < len(path.edge_ids):
                        banned_edges.add(path.edge_ids[spur_index])
            banned_nodes = set(prev_nodes[:spur_index])

            spur_edges = _shortest_with_bans(
                network, spur_node, target, w, banned_edges, banned_nodes
            )
            if spur_edges is None:
                continue
            total_edge_ids = tuple(root_edge_ids) + tuple(spur_edges)
            if total_edge_ids in seen_candidates:
                stats.candidates_pruned += 1
                continue
            seen_candidates.add(total_edge_ids)
            spur_cost = sum(w[e] for e in spur_edges)
            candidate_path = Path.from_edges(network, total_edge_ids, w)
            stats.candidates_generated += 1
            if not candidate_path.is_simple():
                stats.candidates_pruned += 1
                continue
            candidates.append(
                (
                    root_cost + spur_cost,
                    candidate_path.nodes,
                    total_edge_ids,
                )
            )
        if not candidates:
            break
        heapq.heapify(candidates)
        cost, _, edge_ids = heapq.heappop(candidates)
        candidates = list(candidates)
        stats.candidates_accepted += 1
        results.append(Path.from_edges(network, edge_ids, w))
    return results


class YenPlanner(AlternativeRoutePlanner):
    """§2.4 control baseline: top-k shortest paths as the "alternatives".

    Deliberately applies *no* diversity criterion, demonstrating the
    near-duplicate behaviour the paper describes.
    """

    name = "Yen"

    def __init__(self, network: RoadNetwork, k: int = DEFAULT_K) -> None:
        super().__init__(network, k)

    def _plan_routes(self, source: int, target: int) -> List[Path]:
        return yen_k_shortest_paths(self.network, source, target, self.k)

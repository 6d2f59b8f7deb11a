"""ALT landmark acceleration (A* + Landmarks + Triangle inequality).

Goal-directed search with landmarks is the standard way to cut node
expansions for repeated point-to-point queries on road networks: pick a
few well-spread *landmark* nodes, precompute every node's shortest-path
distance to and from each landmark, and the triangle inequality turns
those tables into an admissible, consistent A* heuristic::

    dist(v, t) >= dist(v, L) - dist(t, L)      (forward triangle)
    dist(v, t) >= dist(L, t) - dist(L, v)      (backward triangle)

:class:`LandmarkTable` holds the selection (farthest-point, seeded) and
the per-landmark forward/backward distance tables;
:func:`alt_shortest_path_nodes` is the goal-directed kernel over the
:class:`~repro.graph.csr.CsrGraph` arrays.  The heuristic is priced on
the network's *default* travel times, so it only engages for
default-weight queries — planners that search a different vector
(Penalty's penalised weights, the commercial engine's private traffic)
keep using the exact CSR Dijkstra kernel, whose results are
byte-identical to the pure kernel.

The table rides on the CSR view (``csr.landmarks``); a network without
the precomputation behaves exactly as before this layer existed.
Build one explicitly with :func:`ensure_landmarks` (the
``precompute_landmarks`` knob on ``RouteService``/``QueryProcessor``
and the ``repro snapshot`` CLI call it at startup).
"""

from __future__ import annotations

import heapq
import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.cancellation import DEADLINE_CHECK_MASK, active_deadline
from repro.exceptions import ConfigurationError, DisconnectedError
from repro.graph.csr import CsrGraph, csr_dijkstra, ensure_csr
from repro.graph.network import RoadNetwork
from repro.observability.search import active_search_stats

#: Default number of landmarks; enough for strong bounds on the study
#: city sizes while keeping each heuristic evaluation cheap.
DEFAULT_NUM_LANDMARKS = 8

#: Landmarks consulted per query: the strongest few for the target,
#: chosen once before the search (the classic ALT trick — most of the
#: pruning power at a fraction of the per-relaxation cost).
DEFAULT_ACTIVE_LANDMARKS = 4

_INF = math.inf


class LandmarkTable:
    """Seeded landmark selection + per-landmark distance tables.

    ``dist_from[i][v]`` is the shortest-path distance landmark ``i`` ->
    ``v`` and ``dist_to[i][v]`` the distance ``v`` -> landmark ``i``,
    both on the network's default travel times.  Tables are plain
    float lists indexed by dense node id.
    """

    __slots__ = ("landmarks", "dist_from", "dist_to", "seed", "scale")

    def __init__(
        self,
        landmarks: Tuple[int, ...],
        dist_from: List[Sequence[float]],
        dist_to: List[Sequence[float]],
        seed: int,
        scale: float = 1.0,
    ) -> None:
        self.landmarks = landmarks
        self.dist_from = dist_from
        self.dist_to = dist_to
        self.seed = seed
        # Live-traffic support: a table built at weight vector W stays
        # admissible for a new vector W' when every bound is multiplied
        # by ``scale = min_e W'[e] / W[e]`` — each new edge weight is at
        # least ``scale`` times its built weight, so new distances are
        # at least ``scale`` times old ones (consistency survives by
        # the same edgewise argument).  ``scale`` is 1.0 for a table
        # priced on the weights it searches.
        self.scale = scale

    def __len__(self) -> int:
        return len(self.landmarks)

    def potential(self, target: int, count: Optional[int] = None):
        """An admissible heuristic ``h(v) <= dist(v, target)``.

        Uses the ``count`` landmarks with the tightest bounds *at the
        target's antipode proxy* — ranked by how much they promise for
        this query — or all of them when ``count`` is None.  Infinite
        table entries (nodes outside a landmark's reach on directed
        networks) contribute nothing, keeping the bound admissible.
        """
        actives = self._active_for(target, count)
        scale = self.scale

        def h(v: int) -> float:
            best = 0.0
            for to_table, to_t, from_table, from_t in actives:
                d_to = to_table[v]
                if d_to != _INF and to_t != _INF:
                    bound = d_to - to_t
                    if bound > best:
                        best = bound
                if from_t != _INF:
                    d_from = from_table[v]
                    if d_from != _INF:
                        bound = from_t - d_from
                        if bound > best:
                            best = bound
            return best * scale

        return h

    def _active_for(self, target: int, count: Optional[int]):
        """Per-query landmark subset, precomputed as flat tuples."""
        entries = []
        for i in range(len(self.landmarks)):
            to_t = self.dist_to[i][target]
            from_t = self.dist_from[i][target]
            # A landmark's promise for this target: how asymmetric the
            # target sits relative to it (large distances give large
            # triangle slack somewhere in the graph).
            score = 0.0
            if to_t != _INF:
                score = max(score, to_t)
            if from_t != _INF:
                score = max(score, from_t)
            entries.append(
                (score, self.dist_to[i], to_t, self.dist_from[i], from_t)
            )
        entries.sort(key=lambda entry: -entry[0])
        if count is not None:
            entries = entries[:count]
        return tuple(entry[1:] for entry in entries)

    def __repr__(self) -> str:
        return (
            f"LandmarkTable(landmarks={list(self.landmarks)}, "
            f"seed={self.seed})"
        )


def select_landmarks(
    network: RoadNetwork,
    csr: CsrGraph,
    count: int,
    seed: int = 0,
) -> List[int]:
    """Farthest-point landmark selection, deterministic under ``seed``.

    Starting from a random seeded node, the first landmark is the node
    farthest from it, and each further landmark maximises the minimum
    distance to the landmarks already chosen — the classic spread that
    puts landmarks "behind" most targets.  Distances are forward
    shortest-path distances on the default weights; unreachable nodes
    never become landmarks.
    """
    if count < 1:
        raise ConfigurationError(f"landmark count must be >= 1, got {count}")
    n = network.num_nodes
    count = min(count, n)
    rng = random.Random(f"alt-landmarks:{seed}")
    start = rng.randrange(n)

    def _finite_farthest(dist: Sequence[float]) -> Optional[int]:
        best_node, best_dist = None, -1.0
        for node_id in range(n):
            d = dist[node_id]
            if d != _INF and d > best_dist:
                best_node, best_dist = node_id, d
        return best_node

    first_tree = csr_dijkstra(network, csr, start, forward=True)
    first = _finite_farthest(first_tree.dist)
    if first is None:  # start is isolated; fall back to the start itself
        first = start
    landmarks = [first]
    min_dist: Optional[List[float]] = None
    while len(landmarks) < count:
        tree = csr_dijkstra(network, csr, landmarks[-1], forward=True)
        if min_dist is None:
            min_dist = list(tree.dist)
        else:
            dist = tree.dist
            for node_id in range(n):
                if dist[node_id] < min_dist[node_id]:
                    min_dist[node_id] = dist[node_id]
        for landmark in landmarks:
            min_dist[landmark] = -1.0
        nxt = _finite_farthest(min_dist)
        if nxt is None or nxt in landmarks:
            break  # graph exhausted before reaching the requested count
        landmarks.append(nxt)
    return landmarks


def build_landmarks(
    network: RoadNetwork,
    count: int = DEFAULT_NUM_LANDMARKS,
    seed: int = 0,
) -> LandmarkTable:
    """Select landmarks and compute both distance tables (2 Dijkstras
    per landmark, on the CSR kernel)."""
    csr = ensure_csr(network)
    chosen = select_landmarks(network, csr, count, seed=seed)
    dist_from: List[Sequence[float]] = []
    dist_to: List[Sequence[float]] = []
    for landmark in chosen:
        dist_from.append(
            csr_dijkstra(network, csr, landmark, forward=True).dist
        )
        dist_to.append(
            csr_dijkstra(network, csr, landmark, forward=False).dist
        )
    return LandmarkTable(tuple(chosen), dist_from, dist_to, seed)


def ensure_landmarks(
    network: RoadNetwork,
    count: int = DEFAULT_NUM_LANDMARKS,
    seed: int = 0,
) -> LandmarkTable:
    """The network's landmark table, building and attaching on demand.

    The table rides on the CSR view; an existing table is reused only
    when it has at least ``count`` landmarks (the common case: every
    caller asks for the same startup-configured count).
    """
    csr = ensure_csr(network)
    table = csr.landmarks
    if table is None or len(table) < min(count, network.num_nodes):
        table = build_landmarks(network, count=count, seed=seed)
        csr.landmarks = table
    return table


def alt_shortest_path_nodes(
    network: RoadNetwork,
    csr: CsrGraph,
    source: int,
    target: int,
    active_landmarks: Optional[int] = DEFAULT_ACTIVE_LANDMARKS,
) -> List[int]:
    """Goal-directed shortest s-t path over the CSR arrays.

    A* with the ALT potential of ``csr.landmarks`` (which must be
    attached), on the network's default travel times.  The returned
    path cost always equals the Dijkstra shortest-path cost — the
    heuristic is admissible and consistent — while expanding a fraction
    of the nodes.  Relaxations whose lower bound through the node
    cannot beat the best known target distance are skipped and counted
    as ``heuristic_prunes`` in the ambient SearchStats.

    Raises :class:`DisconnectedError` when no path exists.
    """
    if source == target:
        raise ConfigurationError("source and target must differ")
    network.node(source)
    network.node(target)
    table = csr.landmarks
    if table is None:
        raise ConfigurationError(
            "no landmark table attached; call ensure_landmarks() first"
        )
    h = table.potential(target, count=active_landmarks)

    n = csr.num_nodes
    dist: List[float] = [_INF] * n
    parent_edge: List[int] = [-1] * n
    settled: List[bool] = [False] * n
    dist[source] = 0.0
    heap: List[tuple[float, int]] = [(h(source), source)]
    arcs = csr.fwd_arcs
    expanded = 0
    relaxed = 0
    pruned = 0
    deadline = active_deadline()

    while heap:
        _, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        expanded += 1
        if deadline is not None and not (expanded & DEADLINE_CHECK_MASK):
            deadline.check()
        if u == target:
            break
        d = dist[u]
        upper = dist[target]
        for v, edge_id, weight in arcs[u]:
            if settled[v]:
                continue
            relaxed += 1
            nd = d + weight
            if nd < dist[v]:
                remaining = h(v)
                # Admissible bound: any s-t path through v costs at
                # least nd + remaining; skip pushes that cannot beat
                # the best target distance already labelled.
                if nd + remaining >= upper:
                    pruned += 1
                    continue
                dist[v] = nd
                parent_edge[v] = edge_id
                if v == target:
                    upper = nd
                heapq.heappush(heap, (nd + remaining, v))

    stats = active_search_stats()
    if stats is not None:
        stats.nodes_expanded += expanded
        stats.edges_relaxed += relaxed
        stats.heuristic_prunes += pruned

    if not settled[target]:
        raise DisconnectedError(source, target)
    nodes = [target]
    current = target
    edges = network._edges
    while current != source:
        edge = edges[parent_edge[current]]
        current = edge.u
        nodes.append(current)
    nodes.reverse()
    return nodes

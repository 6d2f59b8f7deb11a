"""Pareto-optimal (skyline) routes (paper §2.4, refs [5, 6]).

Bicriteria label-correcting search over (travel time, distance): a
route is reported when no other route is at least as good on both
criteria and strictly better on one.  Road networks keep the Pareto
frontier small in practice, but the worst case is exponential, so the
search carries a per-node label budget and a global stretch bound like
the practical systems in the cited workshop papers.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError, DisconnectedError
from repro.algorithms.dijkstra import kernel_dijkstra
from repro.core.base import DEFAULT_K, AlternativeRoutePlanner
from repro.graph.network import RoadNetwork
from repro.graph.path import Path


class ParetoPlanner(AlternativeRoutePlanner):
    """Skyline routes over (travel time, geometric length).

    Parameters
    ----------
    network, k:
        See :class:`AlternativeRoutePlanner`; the k fastest skyline
        routes are reported.
    stretch_bound:
        Labels whose travel time exceeds this multiple of the s-t
        shortest time are pruned; also bounds the result stretch.
    max_labels_per_node:
        Per-node Pareto-set budget; when exceeded the dominated-most
        label is dropped.  Keeps dense networks tractable.
    """

    name = "Pareto"

    def __init__(
        self,
        network: RoadNetwork,
        k: int = DEFAULT_K,
        stretch_bound: float = 1.5,
        max_labels_per_node: int = 8,
    ) -> None:
        super().__init__(network, k)
        if stretch_bound < 1.0:
            raise ConfigurationError("stretch_bound must be >= 1")
        if max_labels_per_node < 1:
            raise ConfigurationError("max_labels_per_node must be >= 1")
        self.stretch_bound = stretch_bound
        self.max_labels_per_node = max_labels_per_node

    def _plan_routes(self, source: int, target: int) -> List[Path]:
        network = self.network
        weights = network.default_weights()
        base_tree = kernel_dijkstra(network, source, target=target)
        if not base_tree.reachable(target):
            raise DisconnectedError(source, target)
        time_limit = self.stretch_bound * base_tree.distance(target) + 1e-9

        # Labels: (time, length, node, parent label id, edge id).
        labels: List[Tuple[float, float, int, int, int]] = []
        # Per-node Pareto frontier of (time, length) with label ids.
        frontier: Dict[int, List[Tuple[float, float, int]]] = {}
        heap: List[Tuple[float, float, int, int]] = []

        def push(time: float, length: float, node: int, parent: int,
                 edge_id: int) -> None:
            node_frontier = frontier.setdefault(node, [])
            for t, l, _ in node_frontier:
                if t <= time and l <= length:
                    return  # dominated
            node_frontier[:] = [
                (t, l, lid)
                for t, l, lid in node_frontier
                if not (time <= t and length <= l)
            ]
            if len(node_frontier) >= self.max_labels_per_node:
                # Drop the slowest label to stay within budget.
                node_frontier.sort()
                node_frontier.pop()
            label_id = len(labels)
            labels.append((time, length, node, parent, edge_id))
            node_frontier.append((time, length, label_id))
            heapq.heappush(heap, (time, length, node, label_id))

        push(0.0, 0.0, source, -1, -1)
        target_labels: List[int] = []
        edges = network._edges
        adjacency = network._out

        while heap:
            time, length, node, label_id = heapq.heappop(heap)
            # Stale check: the label may have been dominated after push.
            if (time, length, label_id) not in frontier.get(node, ()):
                continue
            if node == target:
                target_labels.append(label_id)
                continue
            for edge_id in adjacency[node]:
                edge = edges[edge_id]
                new_time = time + weights[edge_id]
                if new_time > time_limit:
                    continue
                push(new_time, length + edge.length_m, edge.v, label_id,
                     edge_id)

        if not target_labels:
            raise DisconnectedError(source, target)
        routes: List[Path] = []
        for label_id in sorted(
            target_labels, key=lambda lid: labels[lid][0]
        )[: self.k]:
            edge_ids: List[int] = []
            current = label_id
            while labels[current][3] != -1:
                edge_ids.append(labels[current][4])
                current = labels[current][3]
            edge_ids.reverse()
            route = Path.from_edges(network, edge_ids, weights)
            if route.is_simple():
                routes.append(route)
        return routes

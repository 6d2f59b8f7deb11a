"""Isochrones: the region reachable within a time budget.

A staple of routing engines ("where can I get in 15 minutes?") and a
vivid way to see the traffic model: the 8 am isochrone is visibly
smaller than the 3 am one.  Computed with a cost-bounded Dijkstra; the
result carries the reachable nodes, the partially-reachable *frontier*
edges, and a convex-hull outline for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.algorithms.dijkstra import kernel_dijkstra
from repro.graph.network import RoadNetwork

LatLon = Tuple[float, float]


@dataclass(frozen=True)
class Isochrone:
    """The region reachable from ``source`` within ``budget_s``."""

    network: RoadNetwork
    source: int
    budget_s: float
    #: Nodes whose shortest-path cost is within the budget.
    reachable_nodes: Tuple[int, ...]
    #: Cost of each reachable node, aligned with ``reachable_nodes``.
    costs_s: Tuple[float, ...]
    #: Edges leaving the reachable set (entered but not finished).
    frontier_edge_ids: Tuple[int, ...]

    @property
    def num_reachable(self) -> int:
        """Number of nodes inside the isochrone."""
        return len(self.reachable_nodes)

    def coverage_fraction(self) -> float:
        """Fraction of the network's nodes inside the isochrone."""
        return self.num_reachable / self.network.num_nodes

    def outline(self) -> List[LatLon]:
        """Convex hull of the reachable nodes (closed ring, lat/lon).

        Degenerate cases (one or two reachable nodes) return the points
        themselves.
        """
        points = [
            (node.lat, node.lon)
            for node in (
                self.network.node(v) for v in self.reachable_nodes
            )
        ]
        if len(points) <= 2:
            return points
        return _convex_hull(points)


def _convex_hull(points: Sequence[LatLon]) -> List[LatLon]:
    """Andrew's monotone chain, returning a closed ring."""
    unique = sorted(set(points))
    if len(unique) <= 2:
        return list(unique)

    def cross(o: LatLon, a: LatLon, b: LatLon) -> float:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (
            b[0] - o[0]
        )

    lower: List[LatLon] = []
    for point in unique:
        while (
            len(lower) >= 2 and cross(lower[-2], lower[-1], point) <= 0
        ):
            lower.pop()
        lower.append(point)
    upper: List[LatLon] = []
    for point in reversed(unique):
        while (
            len(upper) >= 2 and cross(upper[-2], upper[-1], point) <= 0
        ):
            upper.pop()
        upper.append(point)
    ring = lower[:-1] + upper[:-1]
    ring.append(ring[0])
    return ring


def isochrone(
    network: RoadNetwork,
    source: int,
    budget_s: float,
    weights: Optional[Sequence[float]] = None,
) -> Isochrone:
    """Compute the isochrone of ``source`` for a travel-time budget.

    ``weights`` routes on any weight vector — pass a
    :class:`~repro.traffic.TrafficModel` snapshot to get time-of-day
    isochrones.
    """
    if budget_s <= 0:
        raise ConfigurationError("budget_s must be positive")
    tree = kernel_dijkstra(network, source, weights=weights, max_dist=budget_s)
    reachable: List[int] = []
    costs: List[float] = []
    for node_id in range(network.num_nodes):
        cost = tree.distance(node_id)
        if cost <= budget_s:
            reachable.append(node_id)
            costs.append(cost)
    inside = set(reachable)
    frontier = tuple(
        edge.id
        for node_id in reachable
        for edge in network.out_edges(node_id)
        if edge.v not in inside
    )
    return Isochrone(
        network=network,
        source=source,
        budget_s=budget_s,
        reachable_nodes=tuple(reachable),
        costs_s=tuple(costs),
        frontier_edge_ids=frontier,
    )

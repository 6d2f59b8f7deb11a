"""Shortest-path substrate.

Everything in :mod:`repro.core` is built from the primitives here:

* :func:`~repro.algorithms.dijkstra.dijkstra` — single-source search,
  optionally early-terminated at a target or a cost bound, in either
  edge direction;
* :class:`~repro.algorithms.sp_tree.ShortestPathTree` — the dist/parent
  structure the Plateaus and Dissimilarity planners join;
* :func:`~repro.algorithms.dijkstra.shortest_path` — s-t convenience
  wrapper returning a :class:`~repro.graph.Path`;
* :func:`~repro.algorithms.bidirectional.bidirectional_dijkstra` — a
  point-to-point search meeting in the middle.
"""

from repro.algorithms.bidirectional import bidirectional_dijkstra
from repro.algorithms.contraction import ContractionHierarchy
from repro.algorithms.dijkstra import (
    dijkstra,
    shortest_path,
    shortest_path_nodes,
)
from repro.algorithms.hub_labels import HubLabeling
from repro.algorithms.isochrone import Isochrone, isochrone
from repro.algorithms.sp_tree import ShortestPathTree
from repro.algorithms.time_dependent import TimedPath, TimeDependentRouter
from repro.algorithms.turn_aware import (
    turn_aware_distance,
    turn_aware_shortest_path,
)

__all__ = [
    "ContractionHierarchy",
    "HubLabeling",
    "Isochrone",
    "ShortestPathTree",
    "TimeDependentRouter",
    "TimedPath",
    "bidirectional_dijkstra",
    "dijkstra",
    "shortest_path",
    "isochrone",
    "shortest_path_nodes",
    "turn_aware_distance",
    "turn_aware_shortest_path",
]

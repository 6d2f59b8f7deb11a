"""The Plateaus approach (paper §2.2; Jones' Choice Routing patent).

Build a forward shortest-path tree ``T_f`` rooted at the source and a
backward tree ``T_b`` rooted at the target, join them, and call the
branches common to both trees *plateaus*.  Longer plateaus yield more
meaningful alternatives, so the top-k plateaus by length are selected
and each is completed into a full route by prepending the tree path
``s -> u`` and appending ``v -> t`` (``u``/``v`` the plateau ends).

Properties the paper relies on (Abraham et al.): plateau paths are
locally optimal, plateaus never intersect, and generically the shortest
path is itself the heaviest plateau.  "Generically" because a long
corridor elsewhere can out-weigh the whole shortest path and Dijkstra
tie-breaking can fragment its plateau, so the planner guarantees the
optimal route explicitly rather than relying on plateau rank.  The join
runs in time linear in the tree size, leaving the two Dijkstra searches
as the dominant cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.algorithms.sp_tree import ShortestPathTree
from repro.cancellation import DEADLINE_CHECK_MASK, active_deadline
from repro.core.base import (
    DEFAULT_K,
    DEFAULT_STRETCH_BOUND,
    AlternativeRoutePlanner,
)
from repro.core.search_context import trees_for_query
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.observability.search import SearchStats, active_search_stats


@dataclass(frozen=True)
class Plateau:
    """A maximal branch common to the forward and backward SP trees.

    ``nodes`` runs in travel direction: ``nodes[0]`` is the end nearer
    the source, ``nodes[-1]`` the end nearer the target.  ``weight_s``
    is the travel time along the plateau — the "length" used for
    ranking.  A single node common to both trees is a degenerate plateau
    of weight 0 (it can still seed a via-path, but ranks last).
    """

    nodes: Tuple[int, ...]
    edge_ids: Tuple[int, ...]
    weight_s: float

    @property
    def start(self) -> int:
        """The plateau end closer to the source."""
        return self.nodes[0]

    @property
    def end(self) -> int:
        """The plateau end closer to the target."""
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self.edge_ids)


def find_plateaus(
    forward_tree: ShortestPathTree,
    backward_tree: ShortestPathTree,
    min_edges: int = 1,
    weights: Optional[List[float]] = None,
) -> List[Plateau]:
    """Join two SP trees and return all plateaus, longest first.

    An edge ``(u, v)`` is *common* when it is simultaneously the
    forward-tree parent edge of ``v`` (the forward tree reaches ``v``
    through it) and the backward-tree parent edge of ``u`` (the backward
    tree leaves ``u`` through it).  Common edges form vertex-disjoint
    chains — each node has at most one incoming and one outgoing common
    edge because tree parents are unique — and each maximal chain is a
    plateau.  The scan is linear in the number of nodes.
    """
    if forward_tree.network is not backward_tree.network:
        raise ConfigurationError("trees must come from the same network")
    if not forward_tree.forward or backward_tree.forward:
        raise ConfigurationError(
            "find_plateaus needs a forward tree and a backward tree"
        )
    network = forward_tree.network
    # Parent ids come from the kernels: index the edge list directly.
    edges = network._edges
    backward_parent = backward_tree.parent_edge
    # next_common[u] = edge id of the common edge leaving u, if any.
    next_common: Dict[int, int] = {}
    has_incoming: set[int] = set()
    for v, edge_id in enumerate(forward_tree.parent_edge):
        if edge_id < 0:
            continue
        u = edges[edge_id].u
        if backward_parent[u] == edge_id:
            next_common[u] = edge_id
            has_incoming.add(v)

    plateaus: List[Plateau] = []
    if weights is None:
        weights = network.default_weights()
    for start in next_common:
        if start in has_incoming:
            continue  # interior node of a longer chain
        nodes: List[int] = [start]
        edge_ids: List[int] = []
        weight = 0.0
        current = start
        while current in next_common:
            edge_id = next_common[current]
            edge_ids.append(edge_id)
            weight += weights[edge_id]
            current = edges[edge_id].v
            nodes.append(current)
        if len(edge_ids) >= min_edges:
            plateaus.append(
                Plateau(
                    nodes=tuple(nodes),
                    edge_ids=tuple(edge_ids),
                    weight_s=weight,
                )
            )
    plateaus.sort(key=lambda p: (-p.weight_s, p.nodes))
    return plateaus


def plateau_route(
    plateau: Plateau,
    forward_tree: ShortestPathTree,
    backward_tree: ShortestPathTree,
    weights: Optional[Sequence[float]] = None,
) -> Path:
    """Complete a plateau into a full s-t route.

    Prepends the forward-tree path ``s -> plateau.start`` and appends
    the backward-tree path ``plateau.end -> t``; the route is priced on
    ``weights`` (default travel times if None).
    """
    network = forward_tree.network
    edge_ids = forward_tree.edge_ids_to_root(plateau.start)
    edge_ids.extend(plateau.edge_ids)
    edge_ids.extend(backward_tree.edge_ids_to_root(plateau.end))
    if not edge_ids:
        raise ConfigurationError(
            "degenerate plateau at the source/target produced an empty route"
        )
    return Path.from_edges(network, edge_ids, weights)


class PlateauPlanner(AlternativeRoutePlanner):
    """Alternative routes from the k longest plateaus.

    Parameters
    ----------
    network, k:
        See :class:`AlternativeRoutePlanner`.
    stretch_bound:
        The paper's 1.4 upper bound: plateau routes costing more than
        ``stretch_bound`` times the fastest path are discarded.  ``None``
        disables it.
    min_plateau_edges:
        Plateaus with fewer edges than this are ignored; the default of
        1 skips only degenerate single-node plateaus.
    """

    name = "Plateaus"

    def __init__(
        self,
        network: RoadNetwork,
        k: int = DEFAULT_K,
        stretch_bound: Optional[float] = DEFAULT_STRETCH_BOUND,
        min_plateau_edges: int = 1,
    ) -> None:
        super().__init__(network, k)
        if stretch_bound is not None and stretch_bound < 1.0:
            raise ConfigurationError("stretch_bound must be >= 1 or None")
        if min_plateau_edges < 1:
            raise ConfigurationError("min_plateau_edges must be >= 1")
        self.stretch_bound = stretch_bound
        self.min_plateau_edges = min_plateau_edges

    def trees(
        self, source: int, target: int
    ) -> Tuple[ShortestPathTree, ShortestPathTree]:
        """Return the forward and backward trees for a query.

        Exposed separately so the Figure-1 experiment can show the
        intermediate construction stages.  Pulls from the ambient
        :class:`~repro.core.search_context.SearchContext` when one is
        armed for this query, building from scratch otherwise.
        """
        return trees_for_query(self.network, source, target)

    def _plan_routes(self, source: int, target: int) -> List[Path]:
        forward_tree, backward_tree = self.trees(source, target)
        optimal_time = forward_tree.distance(target)
        plateaus = find_plateaus(
            forward_tree, backward_tree, min_edges=self.min_plateau_edges
        )
        # The optimal route leads the set regardless of plateau ranking:
        # generically the shortest path is itself the heaviest plateau,
        # but a long corridor elsewhere can out-weigh it (and Dijkstra
        # tie-breaking can fragment the shortest path's plateau), so the
        # guarantee is made explicit here — as in the demo, where the
        # fastest route is always shown.
        optimal_route = forward_tree.path_from_root(target)
        routes: List[Path] = [optimal_route]
        seen: set[frozenset[int]] = {optimal_route.edge_id_set}
        stats = active_search_stats() or SearchStats()
        stats.candidates_generated += 1  # the guaranteed optimal route
        stats.candidates_accepted += 1
        deadline = active_deadline()
        examined = 0
        for plateau in plateaus:
            examined += 1
            if deadline is not None and not (
                examined & DEADLINE_CHECK_MASK
            ):
                deadline.check()
            # Only plateaus reachable from both roots yield valid routes.
            if not forward_tree.reachable(plateau.start):
                continue
            if not backward_tree.reachable(plateau.end):
                continue
            route = plateau_route(plateau, forward_tree, backward_tree)
            stats.candidates_generated += 1
            if route.edge_id_set in seen:
                stats.candidates_pruned += 1
                continue
            if not route.is_simple():
                # A detour that loops through itself is never shown.
                stats.candidates_pruned += 1
                continue
            if (
                self.stretch_bound is not None
                and route.travel_time_s
                > self.stretch_bound * optimal_time + 1e-9
            ):
                stats.candidates_pruned += 1
                continue
            seen.add(route.edge_id_set)
            stats.candidates_accepted += 1
            routes.append(route)
            if len(routes) >= self.k:
                break
        return routes

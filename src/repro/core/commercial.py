"""The simulated commercial engine ("Google Maps" stand-in).

The paper could not control Google Maps: it runs on proprietary
real-time/historical traffic data, applies additional filtering and
ranking criteria ("we believe that they would have spent significant
time and resources to identify such potentially important factors"),
and cannot be forced onto OSM data.  The reproduction therefore needs
an engine with the same two distinguishing properties:

1. it optimises over a *different weight vector* — here a
   :class:`~repro.traffic.CommercialDataProvider` snapshot (3 am by
   default, matching the paper's API-call trick); and
2. it applies extra proprietary-style ranking on top of raw travel
   time — fewer turns and wider roads, the very criteria the paper's
   participants mentioned.

The returned paths carry the engine's *own* travel times; the demo
query processor re-prices them on OSM data for display, exactly as the
paper does, which is what produces the Figure-4 disagreement.
"""

from __future__ import annotations

from typing import List, Optional

from repro.exceptions import ConfigurationError, DisconnectedError
from repro.algorithms.dijkstra import kernel_dijkstra
from repro.core.base import DEFAULT_K, AlternativeRoutePlanner
from repro.core.plateaus import find_plateaus, plateau_route
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.metrics.similarity import dissimilarity_to_set
from repro.metrics.turns import road_width_score, turn_count
from repro.observability.search import SearchStats, active_search_stats
from repro.traffic.provider import CommercialDataProvider


class CommercialEngine(AlternativeRoutePlanner):
    """Alternative routes on private traffic data with extra ranking.

    Parameters
    ----------
    network, k:
        See :class:`AlternativeRoutePlanner`.
    provider:
        The private data source; defaults to a fresh
        :class:`CommercialDataProvider` with seed 0.
    departure_hour:
        Hour of day whose traffic snapshot is used (None = the
        provider's default, 3 am).
    stretch_bound:
        Stretch limit *on the engine's own data*.  Slightly looser than
        the academic approaches' 1.4 because the re-ranking stage may
        promote a marginally slower but simpler route.
    turn_weight_s:
        Ranking penalty per turn, in seconds — the "proprietary"
        preference for simple routes.
    width_weight_s:
        Ranking bonus per unit of road-width score, in seconds per
        kilometre of route.
    min_dissimilarity:
        Candidate routes closer than this to an already-chosen one are
        dropped, so the engine never shows near-duplicates.
    """

    name = "Google Maps"

    def __init__(
        self,
        network: RoadNetwork,
        k: int = DEFAULT_K,
        provider: Optional[CommercialDataProvider] = None,
        departure_hour: Optional[float] = None,
        stretch_bound: float = 1.5,
        turn_weight_s: float = 15.0,
        width_weight_s: float = 30.0,
        min_dissimilarity: float = 0.1,
    ) -> None:
        super().__init__(network, k)
        if stretch_bound < 1.0:
            raise ConfigurationError("stretch_bound must be >= 1")
        if turn_weight_s < 0 or width_weight_s < 0:
            raise ConfigurationError("ranking weights must be >= 0")
        if not (0.0 <= min_dissimilarity < 1.0):
            raise ConfigurationError("min_dissimilarity must be in [0, 1)")
        self.provider = (
            provider
            if provider is not None
            else CommercialDataProvider(network)
        )
        if self.provider.network is not network:
            raise ConfigurationError(
                "provider was built for a different network"
            )
        self.departure_hour = departure_hour
        self.stretch_bound = stretch_bound
        self.turn_weight_s = turn_weight_s
        self.width_weight_s = width_weight_s
        self.min_dissimilarity = min_dissimilarity

    def private_weights(self) -> List[float]:
        """Return the traffic snapshot the engine currently routes on."""
        return self.provider.weights(self.departure_hour)

    def _plan_routes(self, source: int, target: int) -> List[Path]:
        weights = self.private_weights()
        forward_tree = kernel_dijkstra(
            self.network, source, weights=weights, forward=True
        )
        backward_tree = kernel_dijkstra(
            self.network, target, weights=weights, forward=False
        )
        if not forward_tree.reachable(target):
            raise DisconnectedError(source, target)
        optimal_time = forward_tree.distance(target)
        limit = self.stretch_bound * optimal_time + 1e-9

        # Generate plateau candidates on the private data, keep a
        # generous pool, then re-rank with the proprietary criteria.
        # The engine's own optimal route is always in the pool (plateau
        # ranking alone does not guarantee it).
        plateaus = find_plateaus(forward_tree, backward_tree, weights=weights)
        optimal_route = Path.from_edges(
            self.network, forward_tree.edge_ids_to_root(target), weights
        )
        stats = active_search_stats() or SearchStats()
        candidates: List[Path] = [optimal_route]
        seen: set[frozenset[int]] = {optimal_route.edge_id_set}
        stats.candidates_generated += 1
        pool_size = max(4 * self.k, 12)
        for plateau in plateaus:
            if not forward_tree.reachable(plateau.start):
                continue
            if not backward_tree.reachable(plateau.end):
                continue
            route = plateau_route(
                plateau, forward_tree, backward_tree, weights
            )
            stats.candidates_generated += 1
            if route.edge_id_set in seen or not route.is_simple():
                stats.candidates_pruned += 1
                continue
            if route.travel_time_s > limit:
                stats.candidates_pruned += 1
                continue
            seen.add(route.edge_id_set)
            candidates.append(route)
            if len(candidates) >= pool_size:
                break
        if not candidates:
            return []

        fastest = min(candidates, key=lambda p: p.travel_time_s)
        ranked = sorted(candidates, key=self._score)
        # The fastest route is always shown first, as every production
        # navigation engine does; the re-ranking orders the rest.
        chosen: List[Path] = [fastest]
        stats.candidates_accepted += 1
        for route in ranked:
            if len(chosen) >= self.k:
                break
            if route is fastest:
                continue
            stats.dissimilarity_evaluations += len(chosen)
            if (
                dissimilarity_to_set(route, chosen)
                <= self.min_dissimilarity
            ):
                stats.candidates_pruned += 1
                continue
            stats.candidates_accepted += 1
            chosen.append(route)
        return chosen

    def _score(self, route: Path) -> float:
        """Proprietary-style ranking score: lower is better."""
        simplicity_penalty = self.turn_weight_s * turn_count(route)
        width_bonus = (
            self.width_weight_s
            * road_width_score(route)
            * (route.length_m / 1000.0)
        )
        return route.travel_time_s + simplicity_penalty - width_bonus

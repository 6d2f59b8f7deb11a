"""The Penalty approach (paper §2.1).

Iteratively compute shortest paths; after each iteration multiply the
weight of every edge on the found path by a penalty factor (1.4 in the
paper, following Bader et al.), so the next search prefers different
roads.  Stop when k paths are retrieved.

As §2.1 notes, the raw method guarantees neither dissimilarity nor
absence of detours, but additional filtering criteria can be applied
after each retrieval; :class:`PenaltyPlanner` supports the two filters
the paper names — "paths that are too similar to existing paths" and
paths above a stretch bound — as optional parameters so the ablation
benchmarks can switch them on and off.
"""

from __future__ import annotations

from typing import List, Optional

from repro.exceptions import ConfigurationError, DisconnectedError
from repro.algorithms.dijkstra import shortest_path_nodes, unwind_nodes
from repro.algorithms.turn_aware import turn_aware_shortest_path
from repro.cancellation import active_deadline
from repro.core.base import DEFAULT_K, AlternativeRoutePlanner
from repro.core.search_context import active_search_context
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.graph.turns import TurnRestrictionTable
from repro.metrics.similarity import dissimilarity_to_set
from repro.observability.search import SearchStats, active_search_stats

#: Paper §3: "the penalty that we apply to each edge is 1.4, i.e., the
#: edge weight is multiplied by 1.4".
DEFAULT_PENALTY_FACTOR = 1.4


class PenaltyPlanner(AlternativeRoutePlanner):
    """Alternative routes by iterative edge penalisation.

    Parameters
    ----------
    network:
        The road network.
    k:
        Number of alternatives to return.
    penalty_factor:
        Multiplier applied to each edge of every retrieved path.
    max_iterations:
        Safety bound on penalised re-searches; with filters enabled the
        planner may need more than ``k`` iterations to collect ``k``
        admissible paths.
    min_dissimilarity:
        Optional filter: a new path is kept only when its dissimilarity
        to the already-kept paths exceeds this value.  ``None`` disables
        the filter (the paper's demo configuration); 0.0 merely rejects
        exact duplicates.
    stretch_bound:
        Optional filter: reject paths costing more than this multiple of
        the fastest path *under the original weights*.  ``None``
        disables the bound (paper default for Penalty).
    restrictions:
        Optional turn-restriction table; when given, every penalised
        search is turn-aware, so no returned route contains a forbidden
        manoeuvre.  Penalty is the one study approach where this drops
        in for free: its inner loop is a plain shortest-path call.
    """

    name = "Penalty"

    def __init__(
        self,
        network: RoadNetwork,
        k: int = DEFAULT_K,
        penalty_factor: float = DEFAULT_PENALTY_FACTOR,
        max_iterations: Optional[int] = None,
        min_dissimilarity: Optional[float] = None,
        stretch_bound: Optional[float] = None,
        restrictions: Optional[TurnRestrictionTable] = None,
    ) -> None:
        super().__init__(network, k)
        if penalty_factor <= 1.0:
            raise ConfigurationError(
                f"penalty factor must exceed 1, got {penalty_factor}"
            )
        if min_dissimilarity is not None and not (
            0.0 <= min_dissimilarity < 1.0
        ):
            raise ConfigurationError(
                "min_dissimilarity must be in [0, 1) or None"
            )
        if stretch_bound is not None and stretch_bound < 1.0:
            raise ConfigurationError("stretch_bound must be >= 1 or None")
        self.penalty_factor = penalty_factor
        self.max_iterations = (
            max_iterations if max_iterations is not None else 4 * k
        )
        if self.max_iterations < k:
            raise ConfigurationError("max_iterations must be at least k")
        self.min_dissimilarity = min_dissimilarity
        self.stretch_bound = stretch_bound
        if restrictions is not None and restrictions.network is not network:
            raise ConfigurationError(
                "restriction table belongs to a different network"
            )
        self.restrictions = restrictions

    def _penalised_search(
        self, source: int, target: int, penalised: List[float],
        first: bool = False,
    ) -> Path:
        """One shortest-path iteration, turn-aware when configured.

        The ``first`` iteration searches unpenalised weights, so its
        path is the shared forward tree's path to the target when the
        ambient :class:`~repro.core.search_context.SearchContext`
        answers this query on default weights: the same tree, relaxed
        in the same order, gives the same node sequence.
        """
        if self.restrictions is None or self.restrictions.is_empty:
            context = active_search_context() if first else None
            if (
                context is not None
                and context.weights is None
                and context.matches(self.network, source, target)
            ):
                tree = context.forward_tree()
                nodes = unwind_nodes(self.network, tree, source, target)
            else:
                nodes = shortest_path_nodes(
                    self.network, source, target, weights=penalised
                )
            return Path.from_nodes(self.network, nodes, penalised)
        return turn_aware_shortest_path(
            self.network, source, target, self.restrictions,
            weights=penalised,
        )

    def _plan_routes(self, source: int, target: int) -> List[Path]:
        original = self.network.default_weights()
        penalised = self.network.travel_times()
        kept: List[Path] = []
        seen_edge_sets: set[frozenset[int]] = set()
        optimal_time: Optional[float] = None
        stats = active_search_stats() or SearchStats()
        deadline = active_deadline()

        for iteration in range(self.max_iterations):
            # One penalised re-search per iteration: honour the ambient
            # deadline between full Dijkstra runs.
            if deadline is not None:
                deadline.check()
            try:
                found = self._penalised_search(
                    source, target, penalised, first=iteration == 0
                )
            except DisconnectedError:
                # Penalties only raise weights, so disconnection cannot
                # appear mid-run; surface a genuinely unroutable query.
                if optimal_time is None:
                    raise
                break
            # Report the path at its true (unpenalised) cost.
            path = Path.from_edges(self.network, found.edge_ids, original)
            stats.candidates_generated += 1
            if optimal_time is None:
                optimal_time = path.travel_time_s
            self._apply_penalty(path, penalised)
            if path.edge_id_set in seen_edge_sets:
                # The penalty was not enough to displace the search;
                # penalise again and retry.
                stats.candidates_pruned += 1
                continue
            seen_edge_sets.add(path.edge_id_set)
            if self._admissible(path, kept, optimal_time):
                stats.candidates_accepted += 1
                kept.append(path)
                if len(kept) >= self.k:
                    break
            else:
                stats.candidates_pruned += 1
        return kept

    def _apply_penalty(self, path: Path, penalised: List[float]) -> None:
        for edge_id in path.edge_ids:
            penalised[edge_id] *= self.penalty_factor

    def _admissible(
        self, path: Path, kept: List[Path], optimal_time: float
    ) -> bool:
        if self.stretch_bound is not None:
            if path.travel_time_s > self.stretch_bound * optimal_time + 1e-9:
                return False
        if self.min_dissimilarity is not None and kept:
            stats = active_search_stats()
            if stats is not None:
                stats.dissimilarity_evaluations += len(kept)
            if dissimilarity_to_set(path, kept) <= self.min_dissimilarity:
                return False
        return True

"""Admissible alternatives (Abraham et al. [2], the paper's theory source).

The paper leans on [2] twice: for the *1.4 upper bound* its demo
enforces, and for the claim that plateau paths are *locally optimal*.
Abraham et al.'s actual definition is stronger — a single alternative
``p`` to the optimal path ``opt`` is **admissible** when all three hold:

1. **bounded stretch**: every subpath of ``p`` is at most ``1 + eps``
   times the corresponding shortest distance (we test the practical
   global form, ``time(p) <= (1 + eps) * time(opt)``, plus the T-test
   below which covers the subpath condition approximately);
2. **limited sharing**: ``p`` shares at most ``gamma * time(opt)``
   weight with the optimal path;
3. **local optimality**: every subpath of weight at most
   ``alpha * time(opt)`` is a shortest path (the T-test).

:class:`AdmissibleAlternativesPlanner` generates via-node candidates
exactly like the Dissimilarity planner, but admits by the [2] criteria
instead of a θ threshold — the formally-grounded member of the
via-node family, against which the ablation benchmarks can compare the
pragmatic approaches.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.exceptions import ConfigurationError, DisconnectedError
from repro.algorithms.dijkstra import kernel_dijkstra
from repro.core.base import DEFAULT_K, AlternativeRoutePlanner
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.metrics.quality import is_locally_optimal


class AdmissibleAlternativesPlanner(AlternativeRoutePlanner):
    """Via-node alternatives admitted by Abraham et al.'s criteria.

    Parameters
    ----------
    network, k:
        See :class:`AlternativeRoutePlanner`.
    epsilon:
        Stretch slack: alternatives may cost at most ``(1 + epsilon)``
        times the optimal path (0.4 reproduces the paper's 1.4 bound).
    gamma:
        Sharing bound: an alternative may share at most
        ``gamma * time(opt)`` travel-time weight with the optimal path.
    alpha:
        Local-optimality window as a fraction of the *alternative's*
        cost, tested with the sliding-window T-test.
    """

    name = "Admissible"

    def __init__(
        self,
        network: RoadNetwork,
        k: int = DEFAULT_K,
        epsilon: float = 0.4,
        gamma: float = 0.8,
        alpha: float = 0.25,
    ) -> None:
        super().__init__(network, k)
        if epsilon < 0:
            raise ConfigurationError("epsilon must be >= 0")
        if not (0.0 < gamma <= 1.0):
            raise ConfigurationError("gamma must be in (0, 1]")
        if not (0.0 < alpha <= 1.0):
            raise ConfigurationError("alpha must be in (0, 1]")
        self.epsilon = epsilon
        self.gamma = gamma
        self.alpha = alpha

    def _plan_routes(self, source: int, target: int) -> List[Path]:
        forward_tree = kernel_dijkstra(self.network, source, forward=True)
        backward_tree = kernel_dijkstra(self.network, target, forward=False)
        if not forward_tree.reachable(target):
            raise DisconnectedError(source, target)
        optimal_time = forward_tree.distance(target)
        limit = (1.0 + self.epsilon) * optimal_time + 1e-9

        candidates: List[Tuple[float, int]] = []
        for node_id in range(self.network.num_nodes):
            cost = forward_tree.distance(node_id) + backward_tree.distance(
                node_id
            )
            if cost <= limit:
                candidates.append((cost, node_id))
        candidates.sort()

        optimal_path = self._assemble(
            target, source, target, forward_tree, backward_tree
        )
        assert optimal_path is not None
        weights = self.network.default_weights()
        optimal_edges = optimal_path.edge_id_set
        sharing_budget = self.gamma * optimal_time

        selected: List[Path] = [optimal_path]
        seen = {optimal_path.edge_id_set}
        for _, via in candidates:
            if len(selected) >= self.k:
                break
            path = self._assemble(
                via, source, target, forward_tree, backward_tree
            )
            if path is None or path.edge_id_set in seen:
                continue
            seen.add(path.edge_id_set)
            if not path.is_simple():
                continue
            if self._admissible(
                path, optimal_edges, sharing_budget, weights
            ):
                selected.append(path)
        return selected

    def _assemble(
        self, via, source, target, forward_tree, backward_tree
    ) -> Optional[Path]:
        if not forward_tree.reachable(via) or not backward_tree.reachable(
            via
        ):
            return None
        edge_ids: List[int] = []
        if via != source:
            edge_ids.extend(forward_tree.edge_ids_to_root(via))
        if via != target:
            edge_ids.extend(backward_tree.edge_ids_to_root(via))
        if not edge_ids:
            return None
        return Path.from_edges(self.network, edge_ids)

    def _admissible(
        self,
        path: Path,
        optimal_edges: frozenset,
        sharing_budget: float,
        weights,
    ) -> bool:
        """Test the three [2] criteria against the optimal path."""
        # (2) limited sharing, measured in travel-time weight.
        shared_time = sum(
            weights[edge_id]
            for edge_id in path.edge_id_set & optimal_edges
        )
        if shared_time > sharing_budget + 1e-9:
            return False
        # (3) local optimality via the T-test.  (1)'s global form is
        # already guaranteed by the candidate cost limit.
        return is_locally_optimal(path, alpha=self.alpha)

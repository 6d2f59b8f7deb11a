"""The Dissimilarity approach — SSVP-D+ (paper §2.3).

Iteratively add paths to the result set in ascending order of length,
keeping a candidate only when its dissimilarity to the already-selected
paths exceeds a threshold θ (0.5 in the paper).  Exact k-dissimilar
path search is NP-hard, so following Chondrogiannis et al.'s SSVP-D+
the candidates are *via-paths*: for a via-node ``u`` the candidate is
``sp(s, u) + sp(u, t)``, priced from the same forward/backward
shortest-path trees the Plateaus approach builds.  Via-nodes are
examined in ascending via-path length, so the first admitted path is
always the shortest path itself.
"""

from __future__ import annotations

import math
import operator
from typing import List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.cancellation import DEADLINE_CHECK_MASK, active_deadline
from repro.core.base import (
    DEFAULT_K,
    DEFAULT_STRETCH_BOUND,
    AlternativeRoutePlanner,
)
from repro.core.search_context import trees_for_query
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.metrics.similarity import (
    dissimilarity_to_set,
    validate_threshold,
)
from repro.observability.profiling import phase
from repro.observability.search import SearchStats, active_search_stats

#: Paper §3: "The dissimilarity threshold θ ... is set to 0.5".
DEFAULT_THETA = 0.5


class DissimilarityPlanner(AlternativeRoutePlanner):
    """k-dissimilar via-paths (SSVP-D+).

    Parameters
    ----------
    network, k:
        See :class:`AlternativeRoutePlanner`.
    theta:
        Dissimilarity admission threshold; a candidate joins the result
        set only when ``dis(p, P) > theta``.
    stretch_bound:
        The 1.4 upper bound from the paper; via-paths costing more than
        this multiple of the shortest path are never considered.
        ``None`` examines every via-node (slow and rarely useful).
    """

    name = "Dissimilarity"

    def __init__(
        self,
        network: RoadNetwork,
        k: int = DEFAULT_K,
        theta: float = DEFAULT_THETA,
        stretch_bound: Optional[float] = DEFAULT_STRETCH_BOUND,
    ) -> None:
        super().__init__(network, k)
        self.theta = validate_threshold(theta)
        if stretch_bound is not None and stretch_bound < 1.0:
            raise ConfigurationError("stretch_bound must be >= 1 or None")
        self.stretch_bound = stretch_bound

    def _plan_routes(self, source: int, target: int) -> List[Path]:
        with phase("dissimilarity"):
            return self._plan_routes_profiled(source, target)

    def _plan_routes_profiled(self, source: int, target: int) -> List[Path]:
        forward_tree, backward_tree = trees_for_query(
            self.network, source, target
        )
        optimal_time = forward_tree.distance(target)
        limit = (
            math.inf
            if self.stretch_bound is None
            else self.stretch_bound * optimal_time + 1e-9
        )

        # Candidate via-nodes in ascending via-path cost.
        costs = map(operator.add, forward_tree.dist, backward_tree.dist)
        candidates: List[Tuple[float, int]] = [
            (cost, node_id)
            for node_id, cost in enumerate(costs)
            if cost <= limit
        ]
        candidates.sort()

        edges = self.network._edges  # tree parent ids: no bounds check
        forward_parent = forward_tree.parent_edge
        backward_parent = backward_tree.parent_edge
        selected: List[Path] = []
        seen: set[frozenset[int]] = set()
        examined_nodes: set[int] = set()
        stats = active_search_stats() or SearchStats()
        deadline = active_deadline()
        examined = 0
        for cost, via in candidates:
            examined += 1
            if deadline is not None and not (
                examined & DEADLINE_CHECK_MASK
            ):
                deadline.check()
            if cost == math.inf:
                break  # the rest are unreachable (no stretch bound)
            stats.candidates_generated += 1
            examined_nodes.add(via)
            # When the backward tree leaves via's forward parent through
            # the edge that enters via, both via-paths are the same walk
            # edge for edge; once the parent is examined, its edge set
            # is in ``seen`` and this duplicate needs no walk.
            edge_id = forward_parent[via]
            if edge_id >= 0:
                parent = edges[edge_id].u
                if (
                    backward_parent[parent] == edge_id
                    and parent in examined_nodes
                ):
                    stats.candidates_pruned += 1
                    continue
            # sp(s, via) + sp(via, t), assembled from the two trees.
            edge_ids = forward_tree.edge_ids_to_root(via)
            edge_ids.extend(backward_tree.edge_ids_to_root(via))
            edge_set = frozenset(edge_ids)
            if edge_set in seen:
                stats.candidates_pruned += 1
                continue
            seen.add(edge_set)
            path = Path.from_edges(self.network, edge_ids)
            if not path.is_simple():
                # Via-paths through off-route nodes can double back;
                # such walks are never meaningful alternatives.
                stats.candidates_pruned += 1
                continue
            stats.dissimilarity_evaluations += len(selected)
            if dissimilarity_to_set(path, selected) > self.theta:
                stats.candidates_accepted += 1
                selected.append(path)
                if len(selected) >= self.k:
                    break
            else:
                stats.candidates_pruned += 1
        return selected

"""Stretch, local optimality and detour detection.

These are the objective quality criteria the paper invokes:

* the **1.4 upper bound** (Abraham et al.'s uniformly bounded stretch):
  every reported alternative must cost at most ``ub`` times the fastest
  path;
* **local optimality**: every sufficiently short sub-path of a good
  alternative should itself be a shortest path — plateau paths have
  this property by construction, penalty/dissimilarity paths may not
  (§4.2 "we could filter the routes ... that did not satisfy local
  optimality");
* **detours**: a route has a detour when some sub-path is noticeably
  longer than the shortest connection between its endpoints, the thing
  participants perceived as "complicated" routes in Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.algorithms.dijkstra import kernel_dijkstra
from repro.graph.path import Path
from repro.metrics.similarity import average_pairwise_similarity


def stretch(path: Path, optimal_travel_time_s: float) -> float:
    """Return ``path time / optimal time`` (the path's stretch factor).

    The paper's demo enforces stretch <= 1.4 for Plateaus and
    Dissimilarity alternatives.
    """
    if optimal_travel_time_s <= 0:
        raise ConfigurationError("optimal travel time must be positive")
    return path.travel_time_s / optimal_travel_time_s


def _subpath_is_shortest(
    path: Path,
    start_index: int,
    end_index: int,
    weights: Optional[Sequence[float]],
    tolerance: float,
) -> bool:
    """Check one sub-path against the true shortest distance."""
    sub = path.subpath(start_index, end_index)
    w = path.network.default_weights() if weights is None else weights
    sub_time = sum(w[edge_id] for edge_id in sub.edge_ids)
    tree = kernel_dijkstra(
        path.network, sub.source, weights=weights, target=sub.target
    )
    best = tree.distance(sub.target)
    return sub_time <= best * (1.0 + tolerance) + 1e-9


def is_locally_optimal(
    path: Path,
    alpha: float = 0.25,
    weights: Optional[Sequence[float]] = None,
    tolerance: float = 1e-6,
) -> bool:
    """Test Abraham et al.'s local-optimality criterion (their T-test).

    A path is α-locally-optimal when every sub-path of weight at most
    ``alpha * total weight`` is a shortest path.  We apply the standard
    sliding-window approximation: for each node ``i`` of the path, find
    the furthest node ``j`` with sub-path weight <= α·T and verify that
    the sub-path ``i..j`` is shortest.  ``tolerance`` allows for ties
    within floating-point noise.
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
    w = path.network.default_weights() if weights is None else weights
    edge_times = [w[edge_id] for edge_id in path.edge_ids]
    total = sum(edge_times)
    window = alpha * total
    n = len(path.nodes)
    j = 0
    acc = 0.0
    for i in range(n - 1):
        if j < i:
            j = i
            acc = 0.0
        while j < n - 1 and acc + edge_times[j] <= window + 1e-12:
            acc += edge_times[j]
            j += 1
        # Sub-paths heavier than the window are exempt by definition; a
        # single edge exceeding alpha*T therefore skips the check.
        if j > i and not _subpath_is_shortest(
            path, i, j, weights, tolerance
        ):
            return False
        if j > i:
            acc -= edge_times[i]
    return True


def detour_score(
    path: Path,
    weights: Optional[Sequence[float]] = None,
    samples: int = 8,
) -> float:
    """Return the worst sub-path stretch found by sampling.

    Splits the path at ``samples + 1`` roughly equidistant nodes and,
    for every pair of split points, compares the sub-path weight to the
    true shortest distance between them.  A score of 1.0 means no
    detectable detour; 1.5 means some stretch of the route takes 50%
    longer than necessary — the "unnecessary detour" look.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    n = len(path.nodes)
    if n <= 2:
        return 1.0
    indices = sorted(
        {round(k * (n - 1) / (samples + 1)) for k in range(samples + 2)}
    )
    indices = [i for i in indices if 0 <= i <= n - 1]
    w = path.network.default_weights() if weights is None else weights
    prefix = [0.0]
    for edge_id in path.edge_ids:
        prefix.append(prefix[-1] + w[edge_id])
    worst = 1.0
    for a_pos, i in enumerate(indices):
        later = indices[a_pos + 1 :]
        if not later:
            continue
        # The shortest i->j distance never exceeds the sub-path weight,
        # so the search can stop at the furthest sampled sub-path.
        radius = prefix[later[-1]] - prefix[i]
        if radius <= 0:
            continue
        tree = kernel_dijkstra(
            path.network,
            path.nodes[i],
            weights=weights,
            max_dist=radius * (1.0 + 1e-9),
        )
        for j in later:
            sub_time = prefix[j] - prefix[i]
            if sub_time <= 0:
                continue
            best = tree.distance(path.nodes[j])
            if best > 0:
                worst = max(worst, sub_time / best)
    return worst


def has_detour(
    path: Path,
    threshold: float = 1.2,
    weights: Optional[Sequence[float]] = None,
    samples: int = 8,
) -> bool:
    """Return True when :func:`detour_score` exceeds ``threshold``."""
    return detour_score(path, weights=weights, samples=samples) > threshold


@dataclass(frozen=True, slots=True)
class RouteSetSummary:
    """Objective statistics of one approach's alternative-route set."""

    num_routes: int
    fastest_time_s: float
    mean_stretch: float
    max_stretch: float
    mean_pairwise_similarity: float
    total_length_m: float

    def as_dict(self) -> dict:
        """Return a plain-dict form for JSON reports."""
        return {
            "num_routes": self.num_routes,
            "fastest_time_s": self.fastest_time_s,
            "mean_stretch": self.mean_stretch,
            "max_stretch": self.max_stretch,
            "mean_pairwise_similarity": self.mean_pairwise_similarity,
            "total_length_m": self.total_length_m,
        }


def summarize_route_set(
    paths: Sequence[Path], optimal_travel_time_s: Optional[float] = None
) -> RouteSetSummary:
    """Summarise a route set for the experiment reports.

    ``optimal_travel_time_s`` defaults to the fastest path in the set,
    which is correct whenever the planner includes the shortest path
    (all four compared approaches do).
    """
    if not paths:
        raise ConfigurationError("cannot summarise an empty route set")
    fastest = min(p.travel_time_s for p in paths)
    optimal = fastest if optimal_travel_time_s is None else optimal_travel_time_s
    stretches = [stretch(p, optimal) for p in paths]
    return RouteSetSummary(
        num_routes=len(paths),
        fastest_time_s=fastest,
        mean_stretch=sum(stretches) / len(stretches),
        max_stretch=max(stretches),
        mean_pairwise_similarity=average_pairwise_similarity(paths),
        total_length_m=sum(p.length_m for p in paths),
    )

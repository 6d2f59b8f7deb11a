"""Path similarity and dissimilarity.

The alternative-routing literature the paper surveys (Chondrogiannis et
al.; Liu et al.) measures how much two paths overlap by the *length of
the road segments they share*, normalised by path length:

    sim(p, q) = len(edges(p) ∩ edges(q)) / min(len(p), len(q))
    dis(p, q) = 1 - sim(p, q)

and extends dissimilarity to a set P as the minimum over members:

    dis(p, P) = min_{q in P} dis(p, q)

so the Dissimilarity planner admits ``p`` only when ``dis(p, P) > θ``.

All lengths are geometric metres; sharing a long freeway counts much
more than sharing a short ramp, matching users' perception of
"the same route".
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.exceptions import ConfigurationError
from repro.graph.path import Path


def shared_length_m(path_a: Path, path_b: Path) -> float:
    """Return the total length in metres of edges both paths traverse.

    Parallel edges count as distinct roads; a path that uses the twin of
    an edge the other path uses shares no length through it.
    """
    shared_ids = path_a.edge_id_set & path_b.edge_id_set
    edges = path_a.network._edges  # a Path's ids are checked on creation
    return sum([edges[edge_id].length_m for edge_id in shared_ids])


def similarity(path_a: Path, path_b: Path) -> float:
    """Return the shared-length similarity in ``[0, 1]``.

    1 means one path is (geometrically) contained in the other; 0 means
    completely disjoint.
    """
    denominator = min(path_a.length_m, path_b.length_m)
    if denominator <= 0:
        # Degenerate zero-length paths are considered identical.
        return 1.0
    return min(1.0, shared_length_m(path_a, path_b) / denominator)


def dissimilarity(path_a: Path, path_b: Path) -> float:
    """Return ``1 - similarity`` in ``[0, 1]``."""
    return 1.0 - similarity(path_a, path_b)


def dissimilarity_to_set(path: Path, existing: Iterable[Path]) -> float:
    """Return ``dis(path, P) = min over q in P of dis(path, q)``.

    By convention the dissimilarity to an empty set is 1 (a first path
    is always admissible).
    """
    best = 1.0
    for other in existing:
        value = dissimilarity(path, other)
        if value < best:
            best = value
            if best == 0.0:
                break
    return best


def jaccard_similarity(path_a: Path, path_b: Path) -> float:
    """Return the length-weighted Jaccard index of the two edge sets.

    A symmetric alternative to :func:`similarity`, used by the metrics
    reports; it penalises length differences that the min-normalised
    similarity ignores.
    """
    union_ids = path_a.edge_id_set | path_b.edge_id_set
    if not union_ids:
        return 1.0
    network = path_a.network
    union_len = sum(network.edge(edge_id).length_m for edge_id in union_ids)
    if union_len <= 0:
        return 1.0
    return shared_length_m(path_a, path_b) / union_len


def average_pairwise_similarity(paths: Sequence[Path]) -> float:
    """Return the mean :func:`similarity` over all unordered pairs.

    Returns 0 for sets with fewer than two paths (there is nothing to
    overlap).  This is the headline "how diverse is this route set"
    number in the experiment reports.
    """
    if len(paths) < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for i, path_a in enumerate(paths):
        for path_b in paths[i + 1 :]:
            total += similarity(path_a, path_b)
            pairs += 1
    return total / pairs


def overlap_ratio_matrix(paths: Sequence[Path]) -> list[list[float]]:
    """Return the full pairwise similarity matrix (1.0 on the diagonal)."""
    size = len(paths)
    matrix = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            value = similarity(paths[i], paths[j])
            matrix[i][j] = value
            matrix[j][i] = value
    return matrix


def validate_threshold(theta: float) -> float:
    """Validate a dissimilarity threshold, returning it unchanged.

    θ must lie in ``[0, 1)``: θ=0 admits everything not identical, and
    θ≥1 would reject every path including the first alternative.
    """
    if not (0.0 <= theta < 1.0):
        raise ConfigurationError(
            f"dissimilarity threshold must be in [0, 1), got {theta}"
        )
    return theta

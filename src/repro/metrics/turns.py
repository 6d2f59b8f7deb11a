"""Turn-based and road-class route features.

The paper's §4.2 reports participant comments — "Approach C provides
paths with less turns", "less zig-zag is better", "highest rated path
follows wide roads" — and notes that such criteria could be added as
filters.  This module turns those comments into measurable features,
which both the optional post-filters (:mod:`repro.core.filters`) and
the participant model (:mod:`repro.study`) consume.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.geometry import turn_angle_deg
from repro.graph.path import Path

#: Deviation (degrees from straight ahead) below which a junction does
#: not register as a turn at all.
DEFAULT_TURN_THRESHOLD_DEG = 30.0

#: Deviation above which a turn counts as sharp.
DEFAULT_SHARP_TURN_DEG = 75.0


def _angles(path: Path) -> list[float]:
    coords = path.coordinates()
    return [
        turn_angle_deg(*coords[i - 1], *coords[i], *coords[i + 1])
        for i in range(1, len(coords) - 1)
    ]


def turn_count(
    path: Path, threshold_deg: float = DEFAULT_TURN_THRESHOLD_DEG
) -> int:
    """Return the number of junctions where the route deviates by more
    than ``threshold_deg`` from straight ahead."""
    if not (0.0 < threshold_deg <= 180.0):
        raise ConfigurationError(
            f"turn threshold must be in (0, 180], got {threshold_deg}"
        )
    return sum(1 for angle in _angles(path) if angle > threshold_deg)


def sharp_turn_count(
    path: Path, threshold_deg: float = DEFAULT_SHARP_TURN_DEG
) -> int:
    """Return the number of sharp turns (deviation > ``threshold_deg``)."""
    return turn_count(path, threshold_deg=threshold_deg)


def turns_per_km(path: Path) -> float:
    """Return :func:`turn_count` normalised by route length."""
    km = path.length_m / 1000.0
    if km <= 0:
        return 0.0
    return turn_count(path) / km


def zigzag_score(path: Path) -> float:
    """Return the mean turn angle per kilometre (degrees/km).

    A straight arterial run scores near 0; a route that weaves through
    back streets accumulates angle quickly.  This is the "zig-zag"
    feature from the participant comments.
    """
    km = path.length_m / 1000.0
    if km <= 0:
        return 0.0
    return sum(_angles(path)) / km


def road_width_score(path: Path) -> float:
    """Return the length-weighted mean lane count of the route.

    Proxy for "follows wide roads": 1.0 means all single-lane
    residential streets; 3+ means mostly multi-lane arterials or
    freeways.
    """
    total_len = 0.0
    weighted = 0.0
    edges = path.network._edges  # a Path's ids are checked on creation
    for edge_id in path.edge_ids:
        edge = edges[edge_id]
        total_len += edge.length_m
        weighted += edge.length_m * edge.lanes
    if total_len <= 0:
        return 0.0
    return weighted / total_len


def freeway_fraction(path: Path) -> float:
    """Return the fraction of route length on freeway-class segments."""
    total_len = 0.0
    freeway_len = 0.0
    for edge_id in path.edge_ids:
        edge = path.network.edge(edge_id)
        total_len += edge.length_m
        if edge.is_freeway:
            freeway_len += edge.length_m
    if total_len <= 0:
        return 0.0
    return freeway_len / total_len

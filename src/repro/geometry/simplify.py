"""Polyline simplification (Douglas-Peucker).

Long routes on a metropolitan network carry hundreds of vertices; the
demo's map widget does not need metre-level fidelity.
Douglas-Peucker keeps the endpoints and recursively retains the point
furthest from the current chord while that distance exceeds a
tolerance — the standard cartographic simplification.

Distances are computed in a local metric frame (equirectangular around
the segment), which is exact enough at city scale.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.exceptions import ConfigurationError

LatLon = Tuple[float, float]


def _point_segment_distance_m(
    point: LatLon, start: LatLon, end: LatLon
) -> float:
    """Distance from ``point`` to the segment ``start-end`` in metres."""
    # Local metric frame anchored at the segment start.
    lat0 = math.radians(start[0])
    metres_per_deg_lat = 111_320.0
    metres_per_deg_lon = 111_320.0 * max(0.01, math.cos(lat0))

    px = (point[1] - start[1]) * metres_per_deg_lon
    py = (point[0] - start[0]) * metres_per_deg_lat
    ex = (end[1] - start[1]) * metres_per_deg_lon
    ey = (end[0] - start[0]) * metres_per_deg_lat

    seg_len_sq = ex * ex + ey * ey
    if seg_len_sq == 0.0:
        return math.hypot(px, py)
    t = max(0.0, min(1.0, (px * ex + py * ey) / seg_len_sq))
    return math.hypot(px - t * ex, py - t * ey)


def simplify_polyline(
    points: Sequence[LatLon], tolerance_m: float
) -> List[LatLon]:
    """Return a subsequence of ``points`` within ``tolerance_m`` of it.

    The first and last points are always kept; with fewer than three
    points the input is returned unchanged.  Implemented iteratively
    (explicit stack) so kilometre-long routes cannot hit the recursion
    limit.
    """
    if tolerance_m < 0:
        raise ConfigurationError("tolerance_m must be non-negative")
    n = len(points)
    if n < 3 or tolerance_m == 0.0:
        return list(points)

    keep = [False] * n
    keep[0] = keep[n - 1] = True
    stack: List[Tuple[int, int]] = [(0, n - 1)]
    while stack:
        first, last = stack.pop()
        if last <= first + 1:
            continue
        worst_dist = -1.0
        worst_index = -1
        for index in range(first + 1, last):
            dist = _point_segment_distance_m(
                points[index], points[first], points[last]
            )
            if dist > worst_dist:
                worst_dist = dist
                worst_index = index
        if worst_dist > tolerance_m:
            keep[worst_index] = True
            stack.append((first, worst_index))
            stack.append((worst_index, last))
    return [point for point, kept in zip(points, keep) if kept]


def max_deviation_m(
    original: Sequence[LatLon], simplified: Sequence[LatLon]
) -> float:
    """Return the largest distance from an original point to the
    simplified polyline — the error measure Douglas-Peucker bounds."""
    if len(simplified) < 2:
        raise ConfigurationError("simplified polyline needs >= 2 points")
    worst = 0.0
    for point in original:
        best = math.inf
        for start, end in zip(simplified, simplified[1:]):
            best = min(
                best, _point_segment_distance_m(point, start, end)
            )
        worst = max(worst, best)
    return worst

"""Route geometry for the front end: GeoJSON and encoded polylines.

The paper's UI hands each approach's routes to the Google Maps API "to
display these routes using different colors so that they are easily
distinguishable"; our local map widget consumes the same data as
GeoJSON features carrying a color property and, for compactness, the
Google encoded-polyline string.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.base import RouteSet
from repro.geometry import encode_polyline, simplify_polyline
from repro.graph.path import Path

#: Colors per route rank, matching the paper's blue/green/purple
#: figures.
ROUTE_COLORS = ("#1f6feb", "#2da44e", "#8250df", "#d4a72c", "#cf222e")


def route_to_polyline(route: Path) -> str:
    """Return the route's geometry as an encoded polyline string."""
    return encode_polyline(route.coordinates())


def route_to_feature(
    route: Path,
    color: str,
    display_minutes: int,
    rank: int,
    simplify_tolerance_m: Optional[float] = None,
) -> Dict:
    """Return one route as a GeoJSON LineString feature.

    With ``simplify_tolerance_m`` the displayed geometry is
    Douglas-Peucker-simplified to that error bound (the polyline in
    ``properties`` keeps the full geometry either way, so downstream
    consumers can always recover it).
    """
    full = route.coordinates()
    coordinates = full
    if simplify_tolerance_m is not None:
        coordinates = simplify_polyline(full, simplify_tolerance_m)
    return {
        "type": "Feature",
        "geometry": {
            "type": "LineString",
            # GeoJSON is (lon, lat) ordered.
            "coordinates": [[lon, lat] for lat, lon in coordinates],
        },
        "properties": {
            "color": color,
            "rank": rank,
            "travel_time_min": display_minutes,
            "length_m": round(route.length_m, 1),
            "polyline": encode_polyline(full),
        },
    }


def route_set_to_feature_collection(
    route_set: RouteSet,
    display_weights: Sequence[float],
    label: str,
    simplify_tolerance_m: Optional[float] = None,
) -> Dict:
    """Return a blinded approach's routes as a GeoJSON FeatureCollection.

    ``label`` is the blinded approach letter (A-D); travel times are
    re-priced on the display (OSM) weights and rounded to minutes, as
    the paper's query processor does.
    """
    minutes = route_set.travel_times_minutes(display_weights)
    features: List[Dict] = [
        route_to_feature(
            route,
            ROUTE_COLORS[rank % len(ROUTE_COLORS)],
            minutes[rank],
            rank,
            simplify_tolerance_m=simplify_tolerance_m,
        )
        for rank, route in enumerate(route_set)
    ]
    return {
        "type": "FeatureCollection",
        "features": features,
        "properties": {"label": label, "num_routes": len(features)},
    }

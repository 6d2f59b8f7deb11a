"""The demo back end's query processor (paper §3, component 3).

"The input to the query processor is a pair of source and target
locations each represented by longitude and latitude.  First, the query
processor performs geo-coordinate matching and selects the closest
vertices ...  Then [it] computes the alternative routes ... For each of
the routes generated by these four approaches, the query processor
computes its travel time by using the OSM data.  Each travel time is
rounded to display time in minutes."
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.base import AlternativeRoutePlanner
from repro.exceptions import OutsideServiceAreaError, QueryError
from repro.geometry import BoundingBox
from repro.graph.network import RoadNetwork
from repro.graph.spatial import SpatialIndex
from repro.study.rating import APPROACHES

#: The paper's blinding: "The approaches are named A-D (A: Google Maps,
#: B: Plateaus, C: Dissimilarity and D: Penalty)".
APPROACH_LABELS: Dict[str, str] = {
    "Google Maps": "A",
    "Plateaus": "B",
    "Dissimilarity": "C",
    "Penalty": "D",
}


class QueryProcessor:
    """The query processor's configuration: network, planners, matching.

    Holds what answering a query needs — the network, the planners,
    geo-coordinate matching, the service area and the display weights.
    :class:`~repro.serving.service.RouteService` runs the queries.

    Parameters
    ----------
    network:
        The routable network (built by the road-network constructor).
    planners:
        Approach name -> planner; must cover the four study approaches.
        None builds the paper's four from
        :func:`repro.core.registry.paper_planners`.
    service_area:
        Queries outside this rectangle are rejected, like the demo's
        "specified rectangular area (corresponding to the Melbourne
        Metropolitan area)".  Defaults to the network's bounding box.
    traffic_seed:
        Seed for the commercial engine's private data when ``planners``
        is None; ignored otherwise.
    """

    def __init__(
        self,
        network: RoadNetwork,
        planners: Optional[Mapping[str, AlternativeRoutePlanner]] = None,
        service_area: Optional[BoundingBox] = None,
        traffic_seed: int = 0,
    ) -> None:
        if planners is None:
            from repro.core.registry import paper_planners

            planners = paper_planners(network, traffic_seed=traffic_seed)
        missing = [name for name in APPROACHES if name not in planners]
        if missing:
            raise QueryError(f"planners missing for approaches: {missing}")
        self.network = network
        self.planners = dict(planners)
        self.service_area = (
            service_area
            if service_area is not None
            else network.bounding_box()
        )
        self._index = SpatialIndex(network)
        self._display_weights = network.default_weights()

    def match_vertex(self, lat: float, lon: float) -> int:
        """Geo-coordinate matching: the closest network vertex.

        Raises :class:`OutsideServiceAreaError` for clicks outside the
        service rectangle.
        """
        if not self.service_area.contains(lat, lon):
            raise OutsideServiceAreaError(lat, lon)
        return self._index.nearest_node(lat, lon)

    def display_weights(self):
        """The OSM weights every displayed travel time is priced on."""
        return self._display_weights

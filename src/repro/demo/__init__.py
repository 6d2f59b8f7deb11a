"""The web-based demonstration system (paper §3 and Figures 2-3).

Three components, mirroring the paper's architecture:

* the **road-network constructor** lives in :mod:`repro.osm`;
* the **query processor** (:mod:`repro.demo.query_processor`) matches
  clicked coordinates to vertices and holds the four blinded
  approaches; :class:`~repro.serving.service.RouteService` runs them
  and re-prices every route on OSM data in whole minutes;
* the **user interface** (:mod:`repro.demo.webapp`) is a web app on
  the asyncio front end (:mod:`repro.serving.frontend`) serving a
  canvas map; route geometry
  travels as GeoJSON and encoded polylines
  (:mod:`repro.demo.rendering`), and submitted feedback lands in an
  SQLite store (:mod:`repro.demo.storage`).
"""

from repro.demo.query_processor import APPROACH_LABELS, QueryProcessor
from repro.demo.rendering import (
    ROUTE_COLORS,
    route_set_to_feature_collection,
    route_to_feature,
    route_to_polyline,
)
from repro.demo.storage import FeedbackRecord, ResponseStore
from repro.demo.webapp import DemoServer

__all__ = [
    "APPROACH_LABELS",
    "ROUTE_COLORS",
    "DemoServer",
    "FeedbackRecord",
    "QueryProcessor",
    "ResponseStore",
    "route_set_to_feature_collection",
    "route_to_feature",
    "route_to_polyline",
]

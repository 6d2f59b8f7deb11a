"""The road-network substrate.

A :class:`~repro.graph.network.RoadNetwork` is a directed multigraph
with geographic node positions and travel-time edge weights — the data
structure every planner in :mod:`repro.core` runs on.  The package also
provides the incremental :class:`~repro.graph.builder.RoadNetworkBuilder`,
a grid :class:`~repro.graph.spatial.SpatialIndex` for the demo system's
geocoordinate matching, the :class:`~repro.graph.path.Path` value type,
CSV/JSON serialisation of the paper's edge-tuple format, and the flat
CSR acceleration view plus binary snapshot format in
:mod:`repro.graph.csr`.
"""

from repro.graph.builder import RoadNetworkBuilder
from repro.graph.csr import (
    CsrGraph,
    csr_dijkstra,
    ensure_csr,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)
from repro.graph.network import Edge, Node, RoadNetwork
from repro.graph.path import Path
from repro.graph.serialize import (
    load_network_csv,
    load_network_json,
    save_network_csv,
    save_network_json,
)
from repro.graph.spatial import SpatialIndex
from repro.graph.turns import TurnRestrictionTable

__all__ = [
    "CsrGraph",
    "Edge",
    "Node",
    "Path",
    "RoadNetwork",
    "RoadNetworkBuilder",
    "SpatialIndex",
    "TurnRestrictionTable",
    "csr_dijkstra",
    "ensure_csr",
    "load_network_csv",
    "load_network_json",
    "load_snapshot",
    "save_network_csv",
    "save_network_json",
    "save_snapshot",
    "snapshot_info",
]

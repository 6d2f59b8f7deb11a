"""The directed road-network graph used by every planner.

Design notes
------------
The paper's road-network constructor emits "tuples where each tuple
represents an edge of the road network along with its end vertices and
edge weight (travel time)".  :class:`RoadNetwork` stores exactly that,
plus the per-edge metadata (length, highway class, name, lanes) the
route-quality metrics need.

The network is *immutable after construction* (build it with
:class:`~repro.graph.builder.RoadNetworkBuilder`).  Algorithms that need
modified weights — the Penalty planner, the traffic model, the simulated
commercial engine — never mutate the network; they pass an explicit
*weight vector* (``weights[edge_id] -> seconds``) into the shortest-path
routines instead.  ``RoadNetwork.travel_times()`` hands out a fresh
mutable copy of the default weights for that purpose.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.geometry import BoundingBox

#: The ambient :class:`~repro.core.customization.WeightEpoch` pin.  Set
#: per query by the serving layer (and carried to other threads by
#: ``contextvars.copy_context``), it redirects every default-weight
#: lookup — and, through :func:`repro.graph.csr.ensure_csr`, every
#: search kernel — to one immutable weight snapshot, so a query
#: finishes on the epoch it started with even while live traffic swaps
#: the controller's current epoch underneath it.
_ACTIVE_EPOCH: contextvars.ContextVar = contextvars.ContextVar(
    "repro_active_epoch", default=None
)


def active_epoch():
    """The pinned weight epoch for this context, or None."""
    return _ACTIVE_EPOCH.get()


@contextmanager
def epoch_scope(epoch):
    """Pin ``epoch`` (duck-typed: ``.network``/``.weights``/``.csr``)
    for the duration of the ``with`` block."""
    token = _ACTIVE_EPOCH.set(epoch)
    try:
        yield epoch
    finally:
        _ACTIVE_EPOCH.reset(token)

#: Highway classes treated as freeways: the paper's constructor does NOT
#: apply the 1.3 intersection-delay multiplier to these.
FREEWAY_CLASSES = frozenset({"motorway", "motorway_link", "freeway"})


@dataclass(frozen=True, slots=True)
class Node:
    """A road-network vertex.

    ``id`` is dense (``0 .. n_nodes-1``); ``osm_id`` preserves the id the
    vertex had in the source OSM document, when there was one.
    """

    id: int
    lat: float
    lon: float
    osm_id: int = -1


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed road segment.

    Attributes
    ----------
    id:
        Dense edge id (``0 .. n_edges-1``), the index into weight vectors.
    u, v:
        Tail and head node ids.
    length_m:
        Geometric length of the segment in metres.
    travel_time_s:
        Default travel time in seconds — the paper's edge weight:
        ``length / maxspeed``, multiplied by 1.3 unless the segment is a
        freeway.
    highway:
        OSM highway class (``motorway``, ``primary``, ``residential``...).
    maxspeed_kmh:
        Speed limit used to derive the travel time.
    lanes:
        Number of lanes (per direction where known); feeds the
        "wider roads" quality signal from the paper's §4.2.
    name:
        Street name, may be empty.
    way_id:
        The OSM way this segment came from (-1 when not OSM-derived);
        turn restrictions are specified per way, so the constructor
        needs this provenance to compile them to edge level.
    """

    id: int
    u: int
    v: int
    length_m: float
    travel_time_s: float
    highway: str = "residential"
    maxspeed_kmh: float = 50.0
    lanes: int = 1
    name: str = ""
    way_id: int = -1

    @property
    def is_freeway(self) -> bool:
        """True when the segment belongs to a freeway/motorway class."""
        return self.highway in FREEWAY_CLASSES


class RoadNetwork:
    """An immutable directed road network with geographic vertices.

    Supports parallel edges (two distinct roads between the same pair of
    junctions) because real OSM data contains them; ``edge_between``
    returns the fastest one.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        name: str = "road-network",
    ) -> None:
        self.name = name
        self._nodes: List[Node] = list(nodes)
        self._edges: List[Edge] = list(edges)
        self._validate()
        n = len(self._nodes)
        self._out: List[List[int]] = [[] for _ in range(n)]
        self._in: List[List[int]] = [[] for _ in range(n)]
        for edge in self._edges:
            self._out[edge.u].append(edge.id)
            self._in[edge.v].append(edge.id)
        self._default_weights: List[float] = [
            e.travel_time_s for e in self._edges
        ]
        self._bbox: Optional[BoundingBox] = None
        # Cached CSR view, read and written only by
        # repro.graph.csr.ensure_csr (and the snapshot loaders there);
        # None until first built.
        self._csr = None

    def _validate(self) -> None:
        for index, node in enumerate(self._nodes):
            if node.id != index:
                raise GraphError(
                    f"node ids must be dense: expected {index}, "
                    f"got {node.id}"
                )
        n = len(self._nodes)
        for index, edge in enumerate(self._edges):
            if edge.id != index:
                raise GraphError(
                    f"edge ids must be dense: expected {index}, "
                    f"got {edge.id}"
                )
            if not (0 <= edge.u < n):
                raise NodeNotFoundError(edge.u)
            if not (0 <= edge.v < n):
                raise NodeNotFoundError(edge.v)
            if edge.u == edge.v:
                raise GraphError(f"self-loop on node {edge.u} (edge {index})")
            if edge.travel_time_s <= 0 or edge.length_m < 0:
                raise GraphError(
                    f"edge {index} has non-positive weight "
                    f"{edge.travel_time_s}"
                )

    # -- basic accessors --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of vertices."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._edges)

    def node(self, node_id: int) -> Node:
        """Return the node with dense id ``node_id``."""
        if not (0 <= node_id < len(self._nodes)):
            raise NodeNotFoundError(node_id)
        return self._nodes[node_id]

    def edge(self, edge_id: int) -> Edge:
        """Return the edge with dense id ``edge_id``."""
        if not (0 <= edge_id < len(self._edges)):
            raise EdgeNotFoundError(edge_id)
        return self._edges[edge_id]

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes in id order."""
        return iter(self._nodes)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in id order."""
        return iter(self._edges)

    # -- adjacency ---------------------------------------------------------

    def out_edges(self, node_id: int) -> List[Edge]:
        """Return the edges leaving ``node_id``."""
        if not (0 <= node_id < len(self._nodes)):
            raise NodeNotFoundError(node_id)
        return [self._edges[i] for i in self._out[node_id]]

    def in_edges(self, node_id: int) -> List[Edge]:
        """Return the edges entering ``node_id``."""
        if not (0 <= node_id < len(self._nodes)):
            raise NodeNotFoundError(node_id)
        return [self._edges[i] for i in self._in[node_id]]

    def out_edge_ids(self, node_id: int) -> List[int]:
        """Return ids of edges leaving ``node_id`` (no copy of Edge objects).

        This is the hot accessor used by Dijkstra; it intentionally
        returns the internal list, which callers must not mutate.
        """
        return self._out[node_id]

    def in_edge_ids(self, node_id: int) -> List[int]:
        """Return ids of edges entering ``node_id`` (internal list)."""
        return self._in[node_id]

    def successors(self, node_id: int) -> List[int]:
        """Return the distinct head nodes of edges leaving ``node_id``."""
        seen: Dict[int, None] = {}
        for edge_id in self._out[node_id]:
            seen.setdefault(self._edges[edge_id].v, None)
        return list(seen)

    def predecessors(self, node_id: int) -> List[int]:
        """Return the distinct tail nodes of edges entering ``node_id``."""
        seen: Dict[int, None] = {}
        for edge_id in self._in[node_id]:
            seen.setdefault(self._edges[edge_id].u, None)
        return list(seen)

    def degree(self, node_id: int) -> int:
        """Return out-degree + in-degree of ``node_id``."""
        return len(self._out[node_id]) + len(self._in[node_id])

    def edge_between(
        self, u: int, v: int, weights: Optional[Sequence[float]] = None
    ) -> Edge:
        """Return the fastest directed edge from ``u`` to ``v``.

        When several parallel edges exist, the one with the lowest weight
        under ``weights`` (default travel times if None) is returned.
        Raises :class:`EdgeNotFoundError` when no edge connects the pair.
        """
        w = self.default_weights() if weights is None else weights
        best: Optional[Edge] = None
        for edge_id in self._out[u]:
            edge = self._edges[edge_id]
            if edge.v == v and (best is None or w[edge.id] < w[best.id]):
                best = edge
        if best is None:
            raise EdgeNotFoundError((u, v))
        return best

    def has_edge(self, u: int, v: int) -> bool:
        """Return True when a directed edge from ``u`` to ``v`` exists."""
        if not (0 <= u < len(self._nodes)):
            return False
        return any(self._edges[i].v == v for i in self._out[u])

    # -- weights -----------------------------------------------------------

    def travel_times(self) -> List[float]:
        """Return a fresh mutable copy of the default travel-time vector.

        Planners that perturb weights (Penalty, the traffic model) should
        call this rather than touching ``Edge.travel_time_s``.
        """
        return list(self.default_weights())

    def default_weights(self) -> Sequence[float]:
        """Return the shared read-only default weight vector.

        When a live-traffic weight epoch is pinned on this context (see
        :func:`epoch_scope`) and it belongs to this network, its weight
        vector is returned instead — this is the single choke point
        that makes every default-weight code path epoch-aware.

        Callers must not mutate the returned sequence; use
        :meth:`travel_times` for a private copy.
        """
        epoch = _ACTIVE_EPOCH.get()
        if epoch is not None and epoch.network is self:
            return epoch.weights
        return self._default_weights

    def path_travel_time(
        self,
        node_ids: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> float:
        """Return the total weight of the walk through ``node_ids``.

        Picks the cheapest parallel edge at every hop.  Raises
        :class:`EdgeNotFoundError` when consecutive nodes are not
        adjacent.
        """
        total = 0.0
        w = self.default_weights() if weights is None else weights
        for u, v in zip(node_ids, node_ids[1:]):
            total += w[self.edge_between(u, v, weights).id]
        return total

    def path_length_m(self, node_ids: Sequence[int]) -> float:
        """Return the geometric length in metres of a node walk."""
        return sum(
            self.edge_between(u, v).length_m
            for u, v in zip(node_ids, node_ids[1:])
        )

    # -- geometry ----------------------------------------------------------

    def bounding_box(self) -> BoundingBox:
        """Return (and cache) the tight bounding box of all vertices."""
        if self._bbox is None:
            self._bbox = BoundingBox.from_points(
                (node.lat, node.lon) for node in self._nodes
            )
        return self._bbox

    def coordinates(self, node_ids: Sequence[int]) -> List[Tuple[float, float]]:
        """Return ``(lat, lon)`` pairs for a sequence of node ids."""
        return [
            (self._nodes[i].lat, self._nodes[i].lon)
            if 0 <= i < len(self._nodes)
            else self._raise_missing(i)
            for i in node_ids
        ]

    @staticmethod
    def _raise_missing(node_id: int) -> Tuple[float, float]:
        raise NodeNotFoundError(node_id)

    def __repr__(self) -> str:
        return (
            f"RoadNetwork(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )

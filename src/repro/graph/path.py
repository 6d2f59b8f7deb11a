"""The :class:`Path` value type shared by all planners and metrics.

A path is a node walk through a specific :class:`RoadNetwork` together
with the edge ids actually traversed, so that similarity metrics can
reason about *shared road segments* (the definition used by the
dissimilarity literature the paper builds on) rather than shared
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import EdgeNotFoundError, GraphError
from repro.graph.network import RoadNetwork


@dataclass(frozen=True)
class Path:
    """An s-t walk in a road network.

    Instances are created through :meth:`from_nodes` (which resolves the
    cheapest parallel edges) or :meth:`from_edges`.  ``travel_time_s`` is
    the weight under the vector the path was *created* with — planners
    working on perturbed weights pass theirs explicitly; re-evaluating a
    path on different data is done with :meth:`travel_time_on`.
    """

    network: RoadNetwork
    nodes: Tuple[int, ...]
    edge_ids: Tuple[int, ...]
    travel_time_s: float

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise GraphError("a path needs at least two nodes")
        if len(self.edge_ids) != len(self.nodes) - 1:
            raise GraphError(
                f"path with {len(self.nodes)} nodes must have "
                f"{len(self.nodes) - 1} edges, got {len(self.edge_ids)}"
            )
        # Every traversed id is valid, so the metrics below (and in
        # repro.metrics) may index ``network._edges`` directly.
        _check_edge_ids(self.edge_ids, self.network.num_edges)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_nodes(
        cls,
        network: RoadNetwork,
        node_ids: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> "Path":
        """Build a path from a node walk, picking cheapest parallel edges."""
        w = network.default_weights() if weights is None else weights
        edge_ids: List[int] = []
        total = 0.0
        for u, v in zip(node_ids, node_ids[1:]):
            edge = network.edge_between(u, v, weights)
            edge_ids.append(edge.id)
            total += w[edge.id]
        return cls(
            network=network,
            nodes=tuple(node_ids),
            edge_ids=tuple(edge_ids),
            travel_time_s=total,
        )

    @classmethod
    def from_edges(
        cls,
        network: RoadNetwork,
        edge_ids: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> "Path":
        """Build a path from a connected sequence of edge ids."""
        if not edge_ids:
            raise GraphError("a path needs at least one edge")
        w = network.default_weights() if weights is None else weights
        edges = network._edges
        # Callers pass arbitrary ids, and a negative one would silently
        # index from the end: bounds-check them all before indexing.
        _check_edge_ids(edge_ids, len(edges))
        node = edges[edge_ids[0]].u
        nodes: List[int] = [node]
        total = 0.0
        for edge_id in edge_ids:
            edge = edges[edge_id]
            if edge.u != node:
                raise GraphError(
                    f"edge {edge_id} starts at {edge.u}, expected {node}"
                )
            node = edge.v
            nodes.append(node)
            total += w[edge_id]
        return cls(
            network=network,
            nodes=tuple(nodes),
            edge_ids=tuple(edge_ids),
            travel_time_s=total,
        )

    # -- basic properties ----------------------------------------------------

    @property
    def source(self) -> int:
        """First node of the walk."""
        return self.nodes[0]

    @property
    def target(self) -> int:
        """Last node of the walk."""
        return self.nodes[-1]

    @cached_property
    def length_m(self) -> float:
        """Geometric length of the path in metres."""
        edges = self.network._edges  # ids are checked at construction
        return sum([edges[edge_id].length_m for edge_id in self.edge_ids])

    @cached_property
    def edge_id_set(self) -> frozenset[int]:
        """The set of traversed edge ids (for overlap computations)."""
        return frozenset(self.edge_ids)

    @cached_property
    def node_set(self) -> frozenset[int]:
        """The set of visited node ids."""
        return frozenset(self.nodes)

    def is_simple(self) -> bool:
        """Return True when no node is visited twice."""
        return len(self.node_set) == len(self.nodes)

    def travel_time_on(self, weights: Sequence[float]) -> float:
        """Re-price the path under a different weight vector.

        This is the operation behind the paper's Figure-4 analysis:
        evaluating a Google-Maps route on OSM weights and vice versa.
        """
        return sum(weights[edge_id] for edge_id in self.edge_ids)

    def travel_time_minutes(self) -> int:
        """Travel time rounded to whole minutes, as the demo UI displays."""
        return round(self.travel_time_s / 60.0)

    def coordinates(self) -> List[Tuple[float, float]]:
        """Return the ``(lat, lon)`` geometry of the walk."""
        return self.network.coordinates(self.nodes)

    # -- composition ----------------------------------------------------------

    def concatenate(self, other: "Path") -> "Path":
        """Return ``self`` followed by ``other``.

        ``other`` must start where ``self`` ends; this is how via-paths
        and plateau paths are assembled from tree fragments.
        """
        if other.network is not self.network:
            raise GraphError("cannot concatenate paths on different networks")
        if other.source != self.target:
            raise GraphError(
                f"paths do not join: {self.target} != {other.source}"
            )
        return Path(
            network=self.network,
            nodes=self.nodes + other.nodes[1:],
            edge_ids=self.edge_ids + other.edge_ids,
            travel_time_s=self.travel_time_s + other.travel_time_s,
        )

    def reversed_nodes(self) -> Tuple[int, ...]:
        """Return the node walk in reverse order (geometry helper)."""
        return tuple(reversed(self.nodes))

    def subpath(self, start_index: int, end_index: int) -> "Path":
        """Return the sub-walk covering ``nodes[start_index:end_index+1]``."""
        if not (0 <= start_index < end_index < len(self.nodes)):
            raise GraphError(
                f"invalid subpath bounds [{start_index}, {end_index}] for a "
                f"path of {len(self.nodes)} nodes"
            )
        edge_ids = self.edge_ids[start_index:end_index]
        total = sum(
            self.network.edge(e).travel_time_s for e in edge_ids
        )
        return Path(
            network=self.network,
            nodes=self.nodes[start_index : end_index + 1],
            edge_ids=edge_ids,
            travel_time_s=total,
        )

    # -- identity ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return (
            self.network is other.network and self.edge_ids == other.edge_ids
        )

    def __hash__(self) -> int:
        return hash((id(self.network), self.edge_ids))

    def __repr__(self) -> str:
        return (
            f"Path({self.source}->{self.target}, hops={len(self.edge_ids)}, "
            f"time={self.travel_time_s:.1f}s, length={self.length_m:.0f}m)"
        )


def _check_edge_ids(edge_ids: Sequence[int], num_edges: int) -> None:
    """Raise :class:`EdgeNotFoundError` for the first id out of range."""
    if edge_ids and (min(edge_ids) < 0 or max(edge_ids) >= num_edges):
        raise EdgeNotFoundError(
            next(e for e in edge_ids if not 0 <= e < num_edges)
        )

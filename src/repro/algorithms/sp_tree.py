"""Shortest-path trees.

The Plateaus planner joins a *forward* tree rooted at the source with a
*backward* tree rooted at the target; the Dissimilarity planner (SSVP-D+)
uses the same two trees to price via-paths.  This module is the shared
representation: distances plus parent edges over dense node ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.exceptions import DisconnectedError, GraphError
from repro.graph.network import RoadNetwork
from repro.graph.path import Path


@dataclass(frozen=True)
class ShortestPathTree:
    """A complete shortest-path tree rooted at ``root``.

    Attributes
    ----------
    network:
        The road network the tree lives in.
    root:
        Root node id.
    forward:
        True for a tree of shortest paths *from* the root (following
        edge direction), False for shortest paths *to* the root
        (a backward tree built over reversed edges).
    dist:
        ``dist[v]`` is the tree distance of node ``v`` (``math.inf`` for
        unreachable nodes).
    parent_edge:
        ``parent_edge[v]`` is the id of the edge connecting ``v`` to its
        tree parent, or ``-1`` for the root and unreachable nodes.  For a
        forward tree the parent edge *enters* ``v``; for a backward tree
        it *leaves* ``v``.
    """

    network: RoadNetwork
    root: int
    forward: bool
    dist: Sequence[float]
    parent_edge: Sequence[int]

    def reachable(self, node_id: int) -> bool:
        """Return True when ``node_id`` is connected to the root."""
        return self.dist[node_id] != math.inf

    def distance(self, node_id: int) -> float:
        """Return the tree distance of ``node_id`` (inf if unreachable)."""
        return self.dist[node_id]

    def parent(self, node_id: int) -> Optional[int]:
        """Return the tree-parent node of ``node_id`` (None at the root)."""
        edge_id = self.parent_edge[node_id]
        if edge_id < 0:
            return None
        edge = self.network.edge(edge_id)
        return edge.u if self.forward else edge.v

    def edge_ids_to_root(self, node_id: int) -> List[int]:
        """Return the tree edges between ``node_id`` and the root.

        For a forward tree the list is ordered root -> node (the natural
        traversal order); for a backward tree it is ordered
        node -> root.  Raises :class:`DisconnectedError` for unreachable
        nodes.
        """
        if not self.reachable(node_id):
            if self.forward:
                raise DisconnectedError(self.root, node_id)
            raise DisconnectedError(node_id, self.root)
        # Parent ids come from the kernel, so index the edge list
        # directly instead of paying a bounds-checked call per hop.
        all_edges = self.network._edges
        parent_edge = self.parent_edge
        edges: List[int] = []
        edge_id = parent_edge[node_id]
        if self.forward:
            while edge_id >= 0:
                edges.append(edge_id)
                edge_id = parent_edge[all_edges[edge_id].u]
            edges.reverse()
        else:
            while edge_id >= 0:
                edges.append(edge_id)
                edge_id = parent_edge[all_edges[edge_id].v]
        return edges

    def path_from_root(self, node_id: int) -> Path:
        """Return the tree path root -> ``node_id`` (forward trees only)."""
        if not self.forward:
            raise GraphError(
                "path_from_root is only defined on forward trees"
            )
        if node_id == self.root:
            raise GraphError("the root-to-root path is empty")
        return Path.from_edges(self.network, self.edge_ids_to_root(node_id))

    def path_to_root(self, node_id: int) -> Path:
        """Return the tree path ``node_id`` -> root (backward trees only)."""
        if self.forward:
            raise GraphError("path_to_root is only defined on backward trees")
        if node_id == self.root:
            raise GraphError("the root-to-root path is empty")
        return Path.from_edges(self.network, self.edge_ids_to_root(node_id))

    def tree_edge_ids(self) -> Iterator[int]:
        """Yield the edge ids that belong to the tree."""
        for edge_id in self.parent_edge:
            if edge_id >= 0:
                yield edge_id

    def num_reachable(self) -> int:
        """Return the number of nodes connected to the root (incl. root)."""
        return sum(1 for d in self.dist if d != math.inf)

"""Contraction hierarchies as a serving backend (flat-array edition).

:class:`~repro.algorithms.contraction.ContractionHierarchy` is the
*preprocessor*: it discovers the contraction order and the shortcut
arcs.  This module is the *server*: :class:`CchBackend` re-houses that
augmented graph in ``array``-module buffers plus per-node grouped
adjacency tuples (the same layout trick as
:class:`~repro.graph.csr.CsrGraph`), so the bidirectional upward query
runs µs-scale on the study networks and the whole structure serialises
into the RPRN snapshot format without re-contracting on load.

Three query surfaces:

* :meth:`CchBackend.shortest_path_nodes` — the pruned bidirectional
  upward search with shortcut unpacking, the ``"ch"`` point-to-point
  backend behind :func:`repro.algorithms.dijkstra.shortest_path_nodes`;
* :meth:`CchBackend.upward_search` — one side's *full* upward search
  space (distance + parent-arc maps), the raw material of the
  CH-via-node alternatives planner in :mod:`repro.core.ch_via`;
* :meth:`CchBackend.unpack_arcs` — iterative shortcut expansion back to
  original edge ids, shared by both.

The backend rides on the network's CSR view (``csr.hierarchy``), the
same attachment discipline as the ALT landmark table: build one with
:func:`ensure_hierarchy` and look without building via
:func:`attached_hierarchy`.  Like the landmark table it is priced
on the network's default travel times only — planners searching other
weight vectors never dispatch here.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Dict, List, Optional, Tuple

from repro.algorithms.contraction import _ORIGINAL, ContractionHierarchy
from repro.cancellation import DEADLINE_CHECK_MASK, active_deadline
from repro.exceptions import ConfigurationError, DisconnectedError
from repro.graph.csr import CsrGraph, ensure_csr
from repro.graph.network import RoadNetwork
from repro.observability.profiling import phase
from repro.graph.path import Path
from repro.observability.search import active_search_stats

#: Default witness-search hop limit handed to the preprocessor.
DEFAULT_HOP_LIMIT = 600

_INF = math.inf


class CchBackend:
    """A servable contraction hierarchy over one road network.

    The augmented graph lives in six parallel arrays indexed by arc:
    tail, head, weight, original edge id (``-1`` for shortcuts) and the
    two child arcs a shortcut bypasses (``-1`` for originals).  The
    query-time adjacency — the cheapest upward arc per (tail, head)
    pair, forward and backward — is regrouped into per-node tuples of
    ``(neighbour, weight, arc_index)`` so the hot loop unpacks one
    tuple per arc instead of indexing five arrays.

    Construction goes through :meth:`from_contraction` (fresh
    preprocessing) or :meth:`from_arrays` (snapshot restore); both
    freeze the adjacency with the same deterministic
    first-cheapest-arc-wins rule, so a round-tripped backend answers
    queries identically to the one that was saved.
    """

    __slots__ = (
        "network",
        "rank",
        "arc_tails",
        "arc_heads",
        "arc_weights",
        "arc_edge_ids",
        "arc_child_up",
        "arc_child_down",
        "up_out",
        "up_in",
        "_spaces",
    )

    def __init__(
        self,
        network: RoadNetwork,
        rank: array,
        arc_tails: array,
        arc_heads: array,
        arc_weights: array,
        arc_edge_ids: array,
        arc_child_up: array,
        arc_child_down: array,
    ) -> None:
        n = network.num_nodes
        if len(rank) != n:
            raise ConfigurationError(
                f"rank array has {len(rank)} entries for {n} nodes"
            )
        num_arcs = len(arc_tails)
        for name, arr in (
            ("arc_heads", arc_heads),
            ("arc_weights", arc_weights),
            ("arc_edge_ids", arc_edge_ids),
            ("arc_child_up", arc_child_up),
            ("arc_child_down", arc_child_down),
        ):
            if len(arr) != num_arcs:
                raise ConfigurationError(
                    f"{name} has {len(arr)} entries for {num_arcs} arcs"
                )
        # Range-check node references up front: negative Python indices
        # would silently alias other entries instead of failing.
        if any(r < 0 or r >= n for r in rank):
            raise ConfigurationError(
                f"rank entries must lie in [0, {n})"
            )
        for name, arr in (("arc_tails", arc_tails), ("arc_heads", arc_heads)):
            if any(v < 0 or v >= n for v in arr):
                raise ConfigurationError(
                    f"{name} entries must lie in [0, {n})"
                )
        self.network = network
        self.rank = rank
        self.arc_tails = arc_tails
        self.arc_heads = arc_heads
        self.arc_weights = arc_weights
        self.arc_edge_ids = arc_edge_ids
        self.arc_child_up = arc_child_up
        self.arc_child_down = arc_child_down
        self.up_out, self.up_in = self._freeze()
        # Lazily filled per-root search-space memo (forward, backward);
        # see search_space().  Never serialised — rebuilt on demand.
        self._spaces: Tuple[Dict, Dict] = ({}, {})

    # -- construction -------------------------------------------------------

    @classmethod
    def from_contraction(
        cls, network: RoadNetwork, hierarchy: ContractionHierarchy
    ) -> "CchBackend":
        """Flatten a freshly preprocessed hierarchy into arrays."""
        arcs = hierarchy._arcs
        tails = hierarchy._tails
        num_arcs = len(arcs)
        arc_tails = array("q", tails)
        arc_heads = array("q", [0] * num_arcs)
        arc_weights = array("d", [0.0] * num_arcs)
        arc_edge_ids = array("q", [0] * num_arcs)
        arc_child_up = array("q", [0] * num_arcs)
        arc_child_down = array("q", [0] * num_arcs)
        for index, arc in enumerate(arcs):
            arc_heads[index] = arc.head
            arc_weights[index] = arc.weight
            arc_edge_ids[index] = arc.edge_id
            arc_child_up[index] = arc.child_up
            arc_child_down[index] = arc.child_down
        return cls(
            network,
            array("q", hierarchy.rank),
            arc_tails,
            arc_heads,
            arc_weights,
            arc_edge_ids,
            arc_child_up,
            arc_child_down,
        )

    @classmethod
    def from_arrays(
        cls,
        network: RoadNetwork,
        rank: array,
        arc_tails: array,
        arc_heads: array,
        arc_weights: array,
        arc_edge_ids: array,
        arc_child_up: array,
        arc_child_down: array,
    ) -> "CchBackend":
        """Rebuild a backend from snapshot arrays (no re-contraction).

        The adjacency freeze is a pure function of the arrays, so a
        restored backend is query-for-query identical to the saved one.
        """
        return cls(
            network,
            rank,
            arc_tails,
            arc_heads,
            arc_weights,
            arc_edge_ids,
            arc_child_up,
            arc_child_down,
        )

    @classmethod
    def reweighted(
        cls,
        template: "CchBackend",
        arc_weights: array,
        arc_child_up: array,
        arc_child_down: array,
        up_out: List[tuple],
        up_in: List[tuple],
    ) -> "CchBackend":
        """Clone a backend onto a new metric, skipping re-validation.

        Used by :class:`repro.core.customization.CchCustomizer`: the
        topology arrays (tails/heads/edge ids/rank) are *shared* with
        the template — they are metric-independent — while the weights,
        the shortcut children (the cheapest parallel arc can shift
        under a new metric) and the frozen adjacency are the caller's
        freshly customized copies.  ``__init__``'s structural checks
        are skipped: the template already passed them and the topology
        is unchanged.
        """
        backend = object.__new__(cls)
        backend.network = template.network
        backend.rank = template.rank
        backend.arc_tails = template.arc_tails
        backend.arc_heads = template.arc_heads
        backend.arc_weights = arc_weights
        backend.arc_edge_ids = template.arc_edge_ids
        backend.arc_child_up = arc_child_up
        backend.arc_child_down = arc_child_down
        backend.up_out = up_out
        backend.up_in = up_in
        backend._spaces = ({}, {})
        return backend

    def _freeze(self) -> Tuple[List[tuple], List[tuple]]:
        """Cheapest upward arc per (tail, head) pair, grouped per node.

        Replicates the preprocessor's freeze rule exactly — iterate
        arcs in index order, strict ``<`` keeps the first of equals —
        so ``from_contraction`` and ``from_arrays`` produce the same
        adjacency as :class:`ContractionHierarchy` itself.
        """
        n = self.network.num_nodes
        rank = self.rank
        heads = self.arc_heads
        tails = self.arc_tails
        weights = self.arc_weights
        best_up: List[Dict[int, int]] = [{} for _ in range(n)]
        best_down: List[Dict[int, int]] = [{} for _ in range(n)]
        for index in range(len(tails)):
            u = tails[index]
            v = heads[index]
            if rank[v] > rank[u]:
                current = best_up[u].get(v)
                if current is None or weights[index] < weights[current]:
                    best_up[u][v] = index
            else:
                current = best_down[v].get(u)
                if current is None or weights[index] < weights[current]:
                    best_down[v][u] = index
        up_out = [
            tuple(
                (heads[i], weights[i], i) for i in best_up[u].values()
            )
            for u in range(n)
        ]
        up_in = [
            tuple(
                (tails[i], weights[i], i) for i in best_down[v].values()
            )
            for v in range(n)
        ]
        return up_out, up_in

    # -- statistics ---------------------------------------------------------

    @property
    def num_arcs(self) -> int:
        """Arcs in the augmented graph (originals + shortcuts)."""
        return len(self.arc_tails)

    @property
    def num_shortcuts(self) -> int:
        """Shortcut arcs the preprocessing inserted."""
        return sum(1 for e in self.arc_edge_ids if e == _ORIGINAL)

    def __repr__(self) -> str:
        return (
            f"CchBackend(nodes={self.network.num_nodes}, "
            f"arcs={self.num_arcs}, shortcuts={self.num_shortcuts})"
        )

    # -- queries ------------------------------------------------------------

    def upward_search(
        self, root: int, forward: bool = True, max_dist: float = _INF
    ) -> Tuple[Dict[int, float], Dict[int, int]]:
        """One side's upward search space from ``root`` (profiled)."""
        with phase("upward-search"):
            return self._upward_search(root, forward, max_dist)

    def _upward_search(
        self, root: int, forward: bool = True, max_dist: float = _INF
    ) -> Tuple[Dict[int, float], Dict[int, int]]:
        """One side's upward search space from ``root``.

        Returns ``(dist, parent_arc)`` over every node the upward
        (forward) or downward-reversed (backward) adjacency reaches
        within ``max_dist``.  These distances are upward-graph
        distances — upper bounds on true shortest-path distances,
        exact at every node where the forward and backward spaces
        meet, which is all the via-node planner consumes.  ``max_dist``
        truncates the space: pops come off the heap in nondecreasing
        order, so the search stops outright at the first label beyond
        the bound.
        """
        self.network.node(root)
        adjacency = self.up_out if forward else self.up_in
        dist: Dict[int, float] = {root: 0.0}
        parent_arc: Dict[int, int] = {}
        heap: List[Tuple[float, int]] = [(0.0, root)]
        expanded = 0
        relaxed = 0
        deadline = active_deadline()
        dist_get = dist.get
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            d, u = heappop(heap)
            if d > max_dist:
                break
            if d > dist_get(u, _INF):
                continue
            expanded += 1
            if deadline is not None and not (expanded & DEADLINE_CHECK_MASK):
                deadline.check()
            for v, weight, arc_index in adjacency[u]:
                relaxed += 1
                nd = d + weight
                if nd < dist_get(v, _INF):
                    dist[v] = nd
                    parent_arc[v] = arc_index
                    heappush(heap, (nd, v))
        stats = active_search_stats()
        if stats is not None:
            stats.nodes_expanded += expanded
            stats.edges_relaxed += relaxed
        return dist, parent_arc

    def search_space(
        self, root: int, forward: bool = True
    ) -> Tuple[Dict[int, float], Dict[int, int]]:
        """The memoised full upward search space from ``root``.

        Upward search spaces are static (they depend only on the
        frozen adjacency) and small — tens of nodes on the study
        networks, the same observation hub labelling exploits — so the
        via-node planner's per-root spaces are computed once and
        reused across queries.  The returned maps are shared: callers
        must treat them as read-only.
        """
        cache = self._spaces[0 if forward else 1]
        space = cache.get(root)
        if space is None:
            space = self.upward_search(root, forward)
            cache[root] = space
        return space

    def distance(self, source: int, target: int) -> float:
        """Shortest-path distance (inf when disconnected)."""
        result = self._bidirectional(source, target)
        return result[0] if result is not None else _INF

    def shortest_path_nodes(self, source: int, target: int) -> List[int]:
        """Node sequence of the shortest s-t path, shortcuts unpacked.

        Raises :class:`DisconnectedError` when no path exists.
        """
        if source == target:
            raise ConfigurationError("source and target must differ")
        result = self._bidirectional(source, target)
        if result is None:
            raise DisconnectedError(source, target)
        _cost, forward_arcs, backward_arcs = result
        edge_ids = self.unpack_arcs(forward_arcs + backward_arcs)
        nodes = [source]
        edges = self.network._edges
        for edge_id in edge_ids:
            nodes.append(edges[edge_id].v)
        return nodes

    def shortest_path(self, source: int, target: int) -> Path:
        """The shortest s-t path as a :class:`~repro.graph.Path`."""
        if source == target:
            raise ConfigurationError("source and target must differ")
        result = self._bidirectional(source, target)
        if result is None:
            raise DisconnectedError(source, target)
        _cost, forward_arcs, backward_arcs = result
        edge_ids = self.unpack_arcs(forward_arcs + backward_arcs)
        return Path.from_edges(self.network, edge_ids)

    def _bidirectional(
        self, source: int, target: int
    ) -> Optional[Tuple[float, List[int], List[int]]]:
        """Pruned bidirectional upward search; (cost, fwd, bwd arcs)."""
        self.network.node(source)
        self.network.node(target)
        if source == target:
            return (0.0, [], [])
        dist: Tuple[Dict[int, float], Dict[int, float]] = (
            {source: 0.0},
            {target: 0.0},
        )
        parent_arc: Tuple[Dict[int, int], Dict[int, int]] = ({}, {})
        heaps: Tuple[List, List] = ([(0.0, source)], [(0.0, target)])
        adjacency = (self.up_out, self.up_in)
        best_cost = _INF
        meet = -1
        expanded = 0
        relaxed = 0
        deadline = active_deadline()
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heaps[0] or heaps[1]:
            side = 0 if (
                heaps[0]
                and (not heaps[1] or heaps[0][0][0] <= heaps[1][0][0])
            ) else 1
            d, u = heappop(heaps[side])
            # Stale-label check doubles as the settled guard: labels
            # only decrease, so a pop at the recorded distance is final.
            if d > dist[side].get(u, _INF):
                continue
            expanded += 1
            if deadline is not None and not (expanded & DEADLINE_CHECK_MASK):
                deadline.check()
            if d >= best_cost:
                # This side can no longer improve the meet; drain it.
                heaps[side].clear()
                continue
            other = 1 - side
            other_d = dist[other].get(u)
            if other_d is not None:
                candidate = d + other_d
                if candidate < best_cost:
                    best_cost = candidate
                    meet = u
            side_dist = dist[side]
            side_dist_get = side_dist.get
            side_parent = parent_arc[side]
            side_heap = heaps[side]
            for v, weight, arc_index in adjacency[side][u]:
                relaxed += 1
                nd = d + weight
                if nd < side_dist_get(v, _INF):
                    side_dist[v] = nd
                    side_parent[v] = arc_index
                    heappush(side_heap, (nd, v))
        stats = active_search_stats()
        if stats is not None:
            stats.nodes_expanded += expanded
            stats.edges_relaxed += relaxed
        if meet < 0:
            return None
        forward_arcs: List[int] = []
        current = meet
        while current != source:
            arc_index = parent_arc[0][current]
            forward_arcs.append(arc_index)
            current = self.arc_tails[arc_index]
        forward_arcs.reverse()
        backward_arcs: List[int] = []
        current = meet
        while current != target:
            arc_index = parent_arc[1][current]
            backward_arcs.append(arc_index)
            current = self.arc_heads[arc_index]
        return (best_cost, forward_arcs, backward_arcs)

    # -- unpacking ----------------------------------------------------------

    def unpack_arcs(self, arc_indices: List[int]) -> List[int]:
        """Expand arcs into original edge ids, in travel order."""
        with phase("unpack"):
            return self._unpack_arcs(arc_indices)

    def _unpack_arcs(self, arc_indices: List[int]) -> List[int]:
        edge_ids: List[int] = []
        arc_edge_ids = self.arc_edge_ids
        child_up = self.arc_child_up
        child_down = self.arc_child_down
        for arc_index in arc_indices:
            stack = [arc_index]
            while stack:
                index = stack.pop()
                edge_id = arc_edge_ids[index]
                if edge_id != _ORIGINAL:
                    edge_ids.append(edge_id)
                else:
                    # Push down first so up is expanded first (LIFO).
                    stack.append(child_down[index])
                    stack.append(child_up[index])
        return edge_ids


# -- attachment -------------------------------------------------------------


def build_hierarchy(
    network: RoadNetwork, hop_limit: int = DEFAULT_HOP_LIMIT
) -> CchBackend:
    """Preprocess the network and return a fresh servable backend."""
    hierarchy = ContractionHierarchy(network, hop_limit=hop_limit)
    return CchBackend.from_contraction(network, hierarchy)


def ensure_hierarchy(
    network: RoadNetwork, hop_limit: int = DEFAULT_HOP_LIMIT
) -> CchBackend:
    """The network's CH backend, building and attaching on first call.

    Rides on the CSR view (``csr.hierarchy``), like the ALT landmark
    table.
    """
    csr: CsrGraph = ensure_csr(network)
    backend = csr.hierarchy
    if backend is None:
        backend = build_hierarchy(network, hop_limit=hop_limit)
        csr.hierarchy = backend
    return backend


def attached_hierarchy(network: RoadNetwork) -> Optional[CchBackend]:
    """The attached CH backend, or None — never triggers preprocessing."""
    return ensure_csr(network).hierarchy

"""Binary-heap Dijkstra over :class:`~repro.graph.network.RoadNetwork`.

A search can run forward or backward, stop early at a target, stop at
a cost bound, and accept an arbitrary edge-weight vector.  That last
point is the backbone of the whole library — the Penalty planner, the
traffic model and the simulated commercial engine all express
themselves as alternative weight vectors over an immutable network.

Every search in the library goes through :func:`kernel_dijkstra` (or
the point-to-point dispatch :func:`shortest_path_nodes`), which runs the
flat CSR kernel :func:`repro.graph.csr.csr_dijkstra`.  :func:`dijkstra`
here is the pure-Python reference that kernel is proven identical to:
the differential and fuzz tiers call it directly.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence

from repro.exceptions import ConfigurationError, DisconnectedError
from repro.algorithms.sp_tree import ShortestPathTree
from repro.cancellation import DEADLINE_CHECK_MASK, active_deadline
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.observability.search import active_search_stats


def dijkstra(
    network: RoadNetwork,
    root: int,
    weights: Optional[Sequence[float]] = None,
    forward: bool = True,
    target: Optional[int] = None,
    max_dist: float = math.inf,
) -> ShortestPathTree:
    """Run Dijkstra from ``root`` and return the shortest-path tree.

    The pure-Python reference kernel; library code searches through
    :func:`kernel_dijkstra` instead.

    Parameters
    ----------
    network:
        The road network.
    root:
        Root node id.
    weights:
        Edge weight vector indexed by edge id; defaults to the network's
        travel times.  Weights must be non-negative.
    forward:
        True explores out-edges (shortest paths *from* root); False
        explores in-edges (shortest paths *to* root).
    target:
        When given, the search stops as soon as ``target`` is settled;
        distances of unsettled nodes are upper bounds only, so trees
        built with a target should only be used for the s-t path.
    max_dist:
        Nodes further than this are never settled; their ``dist`` stays
        infinite.  Used for bounded explorations (via-node candidate
        collection).

    Returns the :class:`ShortestPathTree`; the caller checks
    ``tree.reachable(...)`` for connectivity.
    """
    network.node(root)  # raises NodeNotFoundError for bad roots
    w = network.default_weights() if weights is None else weights
    if len(w) < network.num_edges:
        raise ConfigurationError(
            f"weight vector has {len(w)} entries for {network.num_edges} "
            "edges"
        )
    n = network.num_nodes
    dist: List[float] = [math.inf] * n
    parent_edge: List[int] = [-1] * n
    settled: List[bool] = [False] * n
    dist[root] = 0.0
    heap: List[tuple[float, int]] = [(0.0, root)]
    edges = network._edges  # hot loop: avoid method-call overhead
    adjacency = network._out if forward else network._in
    expanded = 0  # settled pops, for SearchStats
    relaxed = 0  # out-edges scanned, for SearchStats
    deadline = active_deadline()

    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        expanded += 1
        if deadline is not None and not (expanded & DEADLINE_CHECK_MASK):
            deadline.check()  # raises PlanningTimeout past the deadline
        if u == target:
            break
        if d > max_dist:
            # Everything still on the heap is at least this far away.
            dist[u] = math.inf
            parent_edge[u] = -1
            break
        for edge_id in adjacency[u]:
            edge = edges[edge_id]
            v = edge.v if forward else edge.u
            if settled[v]:
                continue
            relaxed += 1
            weight = w[edge_id]
            if weight < 0:
                raise ConfigurationError(
                    f"negative weight {weight} on edge {edge_id}"
                )
            nd = d + weight
            if nd < dist[v]:
                dist[v] = nd
                parent_edge[v] = edge_id
                heapq.heappush(heap, (nd, v))

    stats = active_search_stats()
    if stats is not None:
        stats.nodes_expanded += expanded
        stats.edges_relaxed += relaxed

    if target is not None or max_dist != math.inf:
        # Unsettled entries hold tentative (possibly non-optimal)
        # distances; blank them so callers cannot mistake them for
        # shortest-path distances.
        for v in range(n):
            if not settled[v]:
                dist[v] = math.inf
                parent_edge[v] = -1
    return ShortestPathTree(
        network=network,
        root=root,
        forward=forward,
        dist=dist,
        parent_edge=parent_edge,
    )


def shortest_path_nodes(
    network: RoadNetwork,
    source: int,
    target: int,
    weights: Optional[Sequence[float]] = None,
) -> List[int]:
    """Return the node sequence of the shortest s-t path.

    This is the library's point-to-point dispatch: default-weight
    queries resolve the ambient serving backend (see
    :mod:`repro.core.backend`) and run on the contraction-hierarchy
    backend, the goal-directed ALT kernel or the flat CSR Dijkstra
    kernel, whichever the resolved backend names — ``"auto"`` (the
    default outside an armed :func:`~repro.core.backend.backend_scope`)
    picks the fastest structure attached to the network, which is
    exactly the pre-backend behaviour.  Custom weight vectors (Penalty's
    penalised searches) skip the backend dispatch, since ALT and CH are
    priced on default travel times only, and run on the CSR kernel —
    see :func:`kernel_dijkstra`.

    The backend that answered is counted in the ambient
    :class:`~repro.observability.search.SearchStats`
    (``backend_dijkstra``/``backend_alt``/``backend_ch``).

    Raises :class:`DisconnectedError` when no path exists.
    """
    if source == target:
        raise ConfigurationError("source and target must differ")
    if weights is None:
        # Lazy imports: repro.graph.csr imports algorithms.sp_tree, so
        # module-level imports here would be circular.
        from repro.core.backend import active_backend, resolve_backend
        from repro.graph.csr import ensure_csr

        backend = resolve_backend(network, active_backend())
        stats = active_search_stats()
        if backend == "ch":
            from repro.core.ch import attached_hierarchy

            if stats is not None:
                stats.backend_ch += 1
            return attached_hierarchy(network).shortest_path_nodes(
                source, target
            )
        if backend == "alt":
            from repro.core.alt import alt_shortest_path_nodes

            if stats is not None:
                stats.backend_alt += 1
            return alt_shortest_path_nodes(
                network, ensure_csr(network), source, target
            )
        if stats is not None:
            stats.backend_dijkstra += 1
    tree = kernel_dijkstra(network, source, weights=weights, target=target)
    return unwind_nodes(network, tree, source, target)


def kernel_dijkstra(
    network: RoadNetwork,
    root: int,
    weights: Optional[Sequence[float]] = None,
    forward: bool = True,
    target: Optional[int] = None,
    max_dist: float = math.inf,
) -> ShortestPathTree:
    """:func:`dijkstra` on the network's CSR view, for any weight vector.

    Same arguments and the same tree, value for value: the CSR arcs
    relax in the pure kernel's order.  The view is built on first use
    (see :func:`~repro.graph.csr.ensure_csr`).
    """
    # Lazy import: repro.graph.csr imports algorithms.sp_tree, so a
    # module-level import here would be circular.
    from repro.graph.csr import csr_dijkstra, ensure_csr

    return csr_dijkstra(
        network, ensure_csr(network), root, weights=weights,
        forward=forward, target=target, max_dist=max_dist,
    )


def unwind_nodes(
    network: RoadNetwork,
    tree: ShortestPathTree,
    source: int,
    target: int,
) -> List[int]:
    """Walk parent edges target -> source into a node sequence."""
    if not tree.reachable(target):
        raise DisconnectedError(source, target)
    edges = network._edges  # ids come from the tree: no bounds check
    parent_edge = tree.parent_edge
    nodes = [target]
    current = target
    while current != source:
        current = edges[parent_edge[current]].u
        nodes.append(current)
    nodes.reverse()
    return nodes


def shortest_path(
    network: RoadNetwork,
    source: int,
    target: int,
    weights: Optional[Sequence[float]] = None,
) -> Path:
    """Return the shortest s-t path as a :class:`~repro.graph.Path`.

    The returned path's ``travel_time_s`` is measured under ``weights``.
    """
    nodes = shortest_path_nodes(network, source, target, weights)
    return Path.from_nodes(network, nodes, weights)

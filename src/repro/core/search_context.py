"""Shared per-query search state: build each SP tree once, reuse everywhere.

Every approach the paper compares answers the same s-t query, yet three
of them (Plateaus, Dissimilarity/SSVP-D+, the generic via-node family)
independently rebuild the *same* forward shortest-path tree from ``s``
and backward tree to ``t`` on the network's display weights.  A
:class:`SearchContext` is the per-(source, target) home for that state:
it lazily computes and memoizes both trees, so whichever planner needs
a tree first pays for it and every later planner gets it for free.
Penalty reads the forward tree too: its first search runs on
unpenalised weights, so its path is that tree's path to the target.

Three access patterns layer on top of one primitive:

* **Explicit** — ``planner.plan(s, t, context=ctx)`` validates the
  context against the query and arms it for the call.
* **Ambient** — the serving layer arms one context per query with
  :func:`search_context_scope` before fanning the approaches out onto
  its thread pool; the planners discover it through
  :func:`active_search_context`, the same ``contextvars`` backbone the
  tracer, the search-stats collector and the cooperative deadline use.
* **Batched** — a :class:`SearchContextPool` memoizes tree cells across
  *queries*: a batch of queries sharing an origin computes the origin's
  forward tree exactly once (the shortest-path-stability and
  route-diversification workloads in PAPERS.md hammer thousands of
  near-identical s-t queries per origin).

Thread safety: a tree cell is built at most once, under its own lock,
and is immutable afterwards — safe to share across the service's pool
threads.  Construction is deadline-aware for free: the CSR kernel behind
:func:`~repro.algorithms.dijkstra.kernel_dijkstra` honours the ambient
:class:`~repro.cancellation.Deadline`, and a build that raises
:class:`~repro.exceptions.PlanningTimeout` caches nothing, so the next
caller (with a fresher deadline) retries cleanly.

Hit/miss accounting flows two ways: into the ambient
:class:`~repro.observability.search.SearchStats` of whichever ``plan()``
touched the cell (surfacing as ``search.<approach>.context_tree_*``
counters in ``/metrics``) and into the context's own ``tree_hits`` /
``tree_misses`` totals, which the service reports per query.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

from repro.algorithms.dijkstra import kernel_dijkstra
from repro.algorithms.sp_tree import ShortestPathTree
from repro.exceptions import ConfigurationError, DisconnectedError
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.observability.profiling import phase
from repro.observability.search import active_search_stats


def build_tree(
    network: RoadNetwork,
    root: int,
    weights: Optional[Sequence[float]] = None,
    forward: bool = True,
) -> ShortestPathTree:
    """One full shortest-path tree on the network's CSR view.

    For default and custom weight vectors alike; the result is
    identical to the pure reference
    :func:`~repro.algorithms.dijkstra.dijkstra` (same arc order, same
    tie-breaking), just faster.  See
    :func:`~repro.algorithms.dijkstra.kernel_dijkstra`.
    """
    with phase("tree-build"):
        return kernel_dijkstra(
            network, root, weights=weights, forward=forward
        )


class _TreeCell:
    """A lazily built, lock-protected, build-once shortest-path tree."""

    __slots__ = ("_build", "_lock", "_tree", "hits", "misses")

    def __init__(self, build: Callable[[], ShortestPathTree]) -> None:
        self._build = build
        self._lock = threading.Lock()
        self._tree: Optional[ShortestPathTree] = None
        self.hits = 0
        self.misses = 0

    def get(self) -> ShortestPathTree:
        """Return the tree, building it on first access.

        A failed build (e.g. the ambient deadline expired mid-Dijkstra)
        caches nothing; the next caller retries.
        """
        stats = active_search_stats()
        with self._lock:
            if self._tree is None:
                self.misses += 1
                if stats is not None:
                    stats.context_tree_misses += 1
                self._tree = self._build()
            else:
                self.hits += 1
                if stats is not None:
                    stats.context_tree_hits += 1
            return self._tree

    @property
    def built(self) -> bool:
        return self._tree is not None


class SearchContext:
    """Memoized forward/backward SP trees for one (source, target) query.

    Parameters
    ----------
    network:
        The road network; planners pulling from the context must be
        bound to the same instance.
    source, target:
        The snapped endpoint node ids (post vertex matching — the
        context lives in planner space, after geo-coordinate snapping).
    weights:
        Edge weight vector the trees are priced on; ``None`` uses the
        network's default travel times — the vector every
        tree-reusing study planner searches on.  Planners that optimise
        a *different* vector (Penalty's penalised re-searches, the
        commercial engine's private traffic) must ignore the context.
    """

    def __init__(
        self,
        network: RoadNetwork,
        source: int,
        target: int,
        weights: Optional[Sequence[float]] = None,
        _forward_cell: Optional[_TreeCell] = None,
        _backward_cell: Optional[_TreeCell] = None,
    ) -> None:
        if source == target:
            raise ConfigurationError(
                "search context needs distinct source and target"
            )
        network.node(source)
        network.node(target)
        self.network = network
        self.source = source
        self.target = target
        self.weights = weights
        self._forward = _forward_cell if _forward_cell is not None else (
            _TreeCell(
                lambda: build_tree(network, source, weights=weights,
                                   forward=True)
            )
        )
        self._backward = _backward_cell if _backward_cell is not None else (
            _TreeCell(
                lambda: build_tree(network, target, weights=weights,
                                   forward=False)
            )
        )

    def matches(
        self, network: RoadNetwork, source: int, target: int
    ) -> bool:
        """True when this context answers exactly that query."""
        return (
            self.network is network
            and self.source == source
            and self.target == target
        )

    def forward_tree(self) -> ShortestPathTree:
        """The forward SP tree rooted at the source (built on demand)."""
        return self._forward.get()

    def backward_tree(self) -> ShortestPathTree:
        """The backward SP tree rooted at the target (built on demand)."""
        return self._backward.get()

    def trees(self) -> tuple[ShortestPathTree, ShortestPathTree]:
        """Both trees; raises :class:`DisconnectedError` for unroutable
        pairs, exactly like the planners' own tree construction."""
        forward = self.forward_tree()
        backward = self.backward_tree()
        if not forward.reachable(self.target):
            raise DisconnectedError(self.source, self.target)
        return forward, backward

    def shortest_path_time(self) -> float:
        """Travel time of the optimal route (inf when disconnected)."""
        return self.forward_tree().distance(self.target)

    def shortest_path(self) -> Path:
        """The optimal route itself, reconstructed from the forward tree."""
        forward = self.forward_tree()
        if not forward.reachable(self.target):
            raise DisconnectedError(self.source, self.target)
        return forward.path_from_root(self.target)

    @property
    def tree_hits(self) -> int:
        """Trees served from memory across both cells."""
        return self._forward.hits + self._backward.hits

    @property
    def tree_misses(self) -> int:
        """Trees that had to be built across both cells."""
        return self._forward.misses + self._backward.misses

    def stats_payload(self) -> dict:
        """JSON-ready hit/miss snapshot for metrics and batch reports."""
        return {
            "tree_hits": self.tree_hits,
            "tree_misses": self.tree_misses,
            "forward_built": self._forward.built,
            "backward_built": self._backward.built,
        }

    def __repr__(self) -> str:
        return (
            f"SearchContext({self.source} -> {self.target}, "
            f"hits={self.tree_hits}, misses={self.tree_misses})"
        )


class SearchContextPool:
    """Context factory that shares tree cells *across* queries.

    One pool per batch: contexts handed out for queries with the same
    source share one forward-tree cell (and symmetrically for targets
    and backward cells), so a batch of n queries from one origin runs
    one forward Dijkstra instead of n.  Thread-safe; the cells
    themselves serialize their single build.
    """

    def __init__(
        self,
        network: RoadNetwork,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        self.network = network
        self.weights = weights
        self._lock = threading.Lock()
        self._forward_cells: dict[int, _TreeCell] = {}
        self._backward_cells: dict[int, _TreeCell] = {}

    def context(self, source: int, target: int) -> SearchContext:
        """A context for (source, target) backed by the pool's cells."""
        network, weights = self.network, self.weights
        with self._lock:
            forward = self._forward_cells.get(source)
            if forward is None:
                forward = _TreeCell(
                    lambda: build_tree(network, source, weights=weights,
                                       forward=True)
                )
                self._forward_cells[source] = forward
            backward = self._backward_cells.get(target)
            if backward is None:
                backward = _TreeCell(
                    lambda: build_tree(network, target, weights=weights,
                                       forward=False)
                )
                self._backward_cells[target] = backward
        return SearchContext(
            network, source, target, weights=weights,
            _forward_cell=forward, _backward_cell=backward,
        )

    @property
    def tree_hits(self) -> int:
        with self._lock:
            cells = list(self._forward_cells.values()) + list(
                self._backward_cells.values()
            )
        return sum(cell.hits for cell in cells)

    @property
    def tree_misses(self) -> int:
        with self._lock:
            cells = list(self._forward_cells.values()) + list(
                self._backward_cells.values()
            )
        return sum(cell.misses for cell in cells)

    def stats_payload(self) -> dict:
        """JSON-ready pool totals for the batch report."""
        with self._lock:
            sources = len(self._forward_cells)
            targets = len(self._backward_cells)
        return {
            "tree_hits": self.tree_hits,
            "tree_misses": self.tree_misses,
            "distinct_sources": sources,
            "distinct_targets": targets,
        }

    def __repr__(self) -> str:
        return (
            f"SearchContextPool(sources={len(self._forward_cells)}, "
            f"targets={len(self._backward_cells)})"
        )


#: The ambient context; None outside a context-armed plan()/query.
_CONTEXT: contextvars.ContextVar[Optional[SearchContext]] = (
    contextvars.ContextVar("repro_search_context", default=None)
)


def active_search_context() -> Optional[SearchContext]:
    """The context armed for this ``plan()`` call, or None.

    Planners read it once per plan and fall back to building their own
    trees when it is None or answers a different query, so direct
    ``plan()`` calls behave exactly as before the context layer existed.
    """
    return _CONTEXT.get()


def trees_for_query(
    network: RoadNetwork, source: int, target: int
) -> tuple[ShortestPathTree, ShortestPathTree]:
    """The forward/backward SP trees for an s-t query, shared if possible.

    The one call the tree-reusing planners (Plateaus, Dissimilarity,
    ViaNode) make instead of two raw ``dijkstra(...)`` runs: when the
    ambient :class:`SearchContext` answers exactly this query on this
    network the memoized trees are returned (hits/misses land in the
    ambient SearchStats); otherwise both trees are built from scratch,
    byte-for-byte what the planners built before this layer existed.

    Raises :class:`DisconnectedError` when the target is unreachable.
    """
    context = active_search_context()
    if context is not None and context.matches(network, source, target):
        return context.trees()
    forward = build_tree(network, source, forward=True)
    backward = build_tree(network, target, forward=False)
    if not forward.reachable(target):
        raise DisconnectedError(source, target)
    return forward, backward


@contextmanager
def search_context_scope(
    context: Optional[SearchContext],
) -> Iterator[Optional[SearchContext]]:
    """Arm ``context`` as the ambient search context for the block.

    ``None`` is accepted and leaves any outer context armed — a planner
    invoked with ``plan(context=None)`` inside a context-armed service
    still sees whatever the service armed, because a ``None`` scope is
    a no-op rather than a shadowing reset.
    """
    if context is None:
        yield None
        return
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)

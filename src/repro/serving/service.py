"""The route service: cached, observable query serving.

This is the production entry point wrapping the paper's demo pipeline.
One :meth:`RouteService.query` call runs the four stages the paper's
architecture describes — vertex matching, planning, re-pricing,
rendering — with the properties a live deployment needs:

* **Caching** — planner results are memoised in an LRU
  :class:`~repro.serving.cache.RouteCache` keyed by
  ``(approach, snapped source, snapped target, k)``; repeated queries
  skip planning entirely.  Call :meth:`invalidate_cache` whenever the
  network's weights change.
* **Serial planning in a fixed order** — the approaches are planned
  one after another on the calling thread, in the query's approach
  order, under one per-query deadline, so a query's answer (and the
  bytes it renders to) does not depend on thread scheduling.
* **Graceful degradation** — a planner raising or timing out yields a
  per-approach error marker in the result; the query still serves the
  approaches that succeeded.  Only a query with *no* usable routes at
  all raises :class:`~repro.exceptions.QueryError`.
* **Observability** — every stage and approach feeds counters and
  latency histograms in a :class:`~repro.serving.metrics.MetricsRegistry`,
  served by the webapp's ``/metrics`` endpoint.
* **Resilience** — a per-query cooperative :class:`~repro.cancellation.
  Deadline` unwinds a planner that overruns it, and approaches whose
  turn comes after it expired are not started; per-approach
  :class:`~repro.serving.resilience.CircuitBreaker` instances fast-fail
  approaches that keep failing; a bounded
  :class:`~repro.serving.resilience.InflightGate` sheds load with
  :class:`~repro.exceptions.ServiceOverloadedError` before queueing it.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.cancellation import Deadline, deadline_scope
from repro.core.base import AlternativeRoutePlanner, RouteSet
from repro.core.search_context import (
    SearchContext,
    SearchContextPool,
    search_context_scope,
)
from repro.demo.query_processor import APPROACH_LABELS, QueryProcessor
from repro.demo.rendering import route_set_to_feature_collection
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DisconnectedError,
    PlanningTimeout,
    QueryError,
    ServiceOverloadedError,
)
from repro.graph.network import RoadNetwork, active_epoch, epoch_scope
from repro.observability.logs import get_logger
from repro.observability.profiling import Profiler, phase, profiling_scope
from repro.observability.querylog import (
    QueryLog,
    build_query_record,
    result_fingerprints,
)
from repro.observability.tracing import (
    Tracer,
    current_span,
    span as tracing_span,
)
from repro.serving.cache import (
    DEFAULT_SCOPED_FLUSH_FRACTION,
    RouteCache,
)
from repro.serving.live import LiveTrafficController, TrafficEvent
from repro.serving.metrics import MetricsRegistry
from repro.serving.query import RouteQuery, RouteRequest, RouteResponse
from repro.serving.resilience import (
    CIRCUIT_CLOSED,
    CircuitBreaker,
    InflightGate,
)
from repro.study.rating import APPROACHES

logger = get_logger(__name__)

#: Default per-query planning timeout, generous for full-size networks.
DEFAULT_TIMEOUT_S = 30.0

#: Consecutive failures before an approach's circuit opens (0 disables).
DEFAULT_BREAKER_THRESHOLD = 5

#: Seconds an open circuit waits before its half-open probe.
DEFAULT_BREAKER_COOLDOWN_S = 30.0

#: Default bound on concurrently admitted queries (None disables).
DEFAULT_MAX_INFLIGHT = 64


def _blinded_label(approach: str) -> str:
    """The study's A-D label, or the approach name for non-study planners."""
    return APPROACH_LABELS.get(approach, approach)


@dataclass(frozen=True)
class ApproachOutcome:
    """What happened to one approach within one query."""

    approach: str
    label: str
    route_set: Optional[RouteSet] = None
    error: Optional[str] = None
    cached: bool = False
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the approach produced a route set (even an empty one)."""
        return self.route_set is not None


@dataclass(frozen=True)
class ServiceResult:
    """The served answer for one query, possibly degraded.

    ``route_sets`` carries the blinded label -> routes mapping for the
    approaches that succeeded; ``errors`` maps the labels that did not
    to a human-readable marker ("TimeoutError: ..." etc.).
    """

    source_node: int
    target_node: int
    fastest_minutes: int
    route_sets: Dict[str, RouteSet]
    errors: Dict[str, str] = field(default_factory=dict)
    outcomes: Tuple[ApproachOutcome, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when at least one approach failed or timed out."""
        return bool(self.errors)

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)


@dataclass(frozen=True)
class BatchItemOutcome:
    """What happened to one query of a :meth:`RouteService.plan_many` batch."""

    index: int
    query: RouteQuery
    result: Optional[ServiceResult] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class BatchResult:
    """A served batch: per-query outcomes plus shared-context accounting.

    ``context_stats`` is the batch pool's payload — tree hits/misses
    and the number of distinct snapped sources/targets — or an empty
    dict when context sharing is disabled on the service.
    """

    outcomes: Tuple[BatchItemOutcome, ...]
    elapsed_s: float
    context_stats: Dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def served(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.served

    def results(self) -> List[ServiceResult]:
        """The successful results, in input order."""
        return [o.result for o in self.outcomes if o.result is not None]


class RouteService:
    """Cached, observable serving over the study planners.

    Parameters
    ----------
    processor:
        The configured :class:`QueryProcessor` (vertex matching, the
        planner map, the display weights).
    cache_size:
        LRU capacity in route sets; 0 disables caching.
    max_workers:
        Ignored.  Planning runs serially on the calling thread; the
        argument is still accepted so callers written against the
        former planner pool (perfbench's in-process reference among
        them) keep constructing the service.
    timeout_s:
        Per-query planning deadline.  A planner that overruns it is
        reported as timed out, and approaches whose turn comes after it
        expired are not started (see DESIGN.md, "Serial planning").
    metrics:
        Shared registry, or None to create a private one.
    tracer:
        Shared :class:`~repro.observability.tracing.Tracer`, or None to
        create a private one.  Every query produces one trace whose
        spans cover vertex matching, the cache lookup, each planner
        invocation and the filter stage.
    breaker_threshold:
        Consecutive planner failures/timeouts before that approach's
        circuit opens and calls fast-fail; 0 disables the breakers.
    breaker_cooldown_s:
        Seconds an open circuit waits before letting one probe through.
    max_inflight:
        Bound on concurrently admitted queries; queries beyond it are
        shed with :class:`ServiceOverloadedError` (None disables).
    share_context:
        When True (default), every query builds one
        :class:`~repro.core.search_context.SearchContext` and arms it
        for each of its planners, so the forward/backward SP
        trees are computed once per query instead of once per
        tree-using approach (and once per *batch* origin under
        :meth:`plan_many`).  False restores the unshared baseline —
        results are identical either way, only the work differs.
    precompute_landmarks:
        When > 0, build the network's CSR view plus an ALT landmark
        table of that many landmarks up front (see
        :mod:`repro.core.alt`), so the shared-context tree builds and
        single-route endpoints run on the accelerated kernels from the
        first query.  0 (default) changes nothing.
    precompute_ch:
        When True, contract the network up front (see
        :func:`~repro.core.ch.ensure_hierarchy`) so CH-backed planners
        and ``backend="ch"``/``"auto"`` queries serve from the
        hierarchy without a first-query contraction stall.  Networks
        loaded from a ``--with-ch`` snapshot already carry the
        hierarchy, making this a no-op.
    query_log:
        Optional :class:`~repro.observability.querylog.QueryLog`; when
        set, every served (or failed) query emits one sampled JSONL
        record carrying the query, outcome, per-approach route
        fingerprints, stage latencies and the trace/span ids that join
        it back to the trace ring buffer.  Logging failures are
        swallowed — capture must never break serving.
    profiler:
        Optional :class:`~repro.observability.profiling.Profiler`;
        when enabled, each query (and render) runs inside a profiling
        scope so the instrumented phases (snap, tree-build,
        upward-search, unpack, dissimilarity, render, plan.<approach>)
        aggregate into the flame-style tree behind
        ``GET /debug/profile``.  None creates a disabled private one.
    breaker_clock:
        Monotonic time source handed to every circuit breaker;
        injectable so tests advance cooldowns without real sleeps.
    live:
        Optional :class:`~repro.serving.live.LiveTrafficController`
        over the same network.  When set, every query pins the
        controller's current :class:`~repro.core.customization.
        WeightEpoch` for all its planners (and :meth:`plan_many` pins
        one epoch for its whole batch), so an epoch swap mid-query can
        never mix weight vectors; apply/rollback events invalidate the
        route cache scoped to the dirty edges; query-log records carry
        the serving epoch.
    """

    def __init__(
        self,
        processor: QueryProcessor,
        cache_size: int = 1024,
        max_workers: Optional[int] = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
        max_inflight: Optional[int] = DEFAULT_MAX_INFLIGHT,
        share_context: bool = True,
        precompute_landmarks: int = 0,
        precompute_ch: bool = False,
        query_log: Optional[QueryLog] = None,
        profiler: Optional[Profiler] = None,
        breaker_clock: Callable[[], float] = time.monotonic,
        live: Optional[LiveTrafficController] = None,
    ) -> None:
        if timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be > 0, got {timeout_s}"
            )
        if breaker_threshold < 0:
            raise ConfigurationError(
                f"breaker_threshold must be >= 0, got {breaker_threshold}"
            )
        if precompute_landmarks:
            from repro.core.alt import ensure_landmarks

            ensure_landmarks(
                processor.network, count=precompute_landmarks
            )
        if precompute_ch:
            from repro.core.ch import ensure_hierarchy

            ensure_hierarchy(processor.network)
        if live is not None and live.network is not processor.network:
            raise ConfigurationError(
                "the live traffic controller must wrap the same network "
                "the service plans on"
            )
        self.processor = processor
        self.live = live
        self.cache = RouteCache(cache_size)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.query_log = query_log
        if live is not None:
            live.add_listener(self._on_traffic_event)
            if query_log is not None:
                # The header is written lazily before the first record,
                # so stamping the meta here lands it in the header line:
                # readers learn the capture ran under live traffic and
                # which epoch serving started on.
                query_log.meta.setdefault(
                    "live_traffic",
                    {"enabled": True, "initial_epoch": live.current.epoch_id},
                )
        self.profiler = profiler if profiler is not None else Profiler()
        self.timeout_s = timeout_s
        self.share_context = share_context
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self._gate = InflightGate(max_inflight or None)
        self._breakers: Dict[str, CircuitBreaker] = {}
        if breaker_threshold:
            for approach in processor.planners:
                self._breakers[approach] = CircuitBreaker(
                    approach,
                    failure_threshold=breaker_threshold,
                    cooldown_s=breaker_cooldown_s,
                    clock=breaker_clock,
                )

    @classmethod
    def from_network(
        cls,
        network: RoadNetwork,
        planners: Optional[Mapping[str, AlternativeRoutePlanner]] = None,
        traffic_seed: int = 0,
        **kwargs,
    ) -> "RouteService":
        """Build a service over a network with the registry's planners."""
        processor = QueryProcessor(network, planners, traffic_seed=traffic_seed)
        return cls(processor, **kwargs)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the service (idempotent).

        Planning runs on the caller's thread, so the service owns no
        threads or processes and there is nothing to release; ``close``
        and the context-manager form stay so callers can manage the
        service as a resource regardless.
        """

    def __enter__(self) -> "RouteService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cache control ------------------------------------------------------

    def invalidate_cache(self) -> int:
        """Drop all cached routes; call after mutating network weights."""
        dropped = self.cache.invalidate(cause="manual")
        self.metrics.inc("cache.invalidations")
        self.metrics.inc("cache.invalidations.manual")
        logger.info("cache invalidated", extra={"dropped": dropped})
        return dropped

    # -- live traffic -------------------------------------------------------

    def active_epoch_id(self) -> Optional[str]:
        """The epoch id new queries will pin (None without live traffic)."""
        return self.live.current.epoch_id if self.live is not None else None

    def _epoch_pin(self):
        """Context manager pinning the live controller's current epoch.

        A no-op when live traffic is not wired or an epoch is already
        pinned on this thread — :meth:`plan_many` pins once for its
        whole batch and the per-query pin must not override it.
        """
        if self.live is None or active_epoch() is not None:
            return nullcontext()
        return epoch_scope(self.live.current)

    def _on_traffic_event(self, event: TrafficEvent) -> None:
        """Invalidate cached routes the epoch transition made stale.

        Quarantines change nothing (serving stays on the last good
        epoch), so only apply/rollback events flush — scoped to the
        dirty edges when the region is small, a full flush when
        intersecting every cached route would cost more than it saves.
        """
        if event.kind == "quarantine":
            return
        cause = "rollback" if event.kind == "rollback" else "traffic-epoch"
        dirty = event.dirty_edges
        threshold = (
            self.processor.network.num_edges * DEFAULT_SCOPED_FLUSH_FRACTION
        )
        if len(dirty) <= threshold:
            dropped = self.cache.invalidate_edges(dirty, cause=cause)
            scope = "scoped"
        else:
            dropped = self.cache.invalidate(cause=cause)
            scope = "full"
        self.metrics.inc("cache.invalidations")
        self.metrics.inc(f"cache.invalidations.{cause}")
        logger.info(
            "cache %s-invalidated on %s of %s: %d entries dropped "
            "(%d dirty edges)",
            scope, event.kind, event.epoch_id, dropped, len(dirty),
        )

    # -- serving ------------------------------------------------------------

    def query(
        self,
        source_lat,
        source_lon: Optional[float] = None,
        target_lat: Optional[float] = None,
        target_lon: Optional[float] = None,
        approaches: Optional[Tuple[str, ...]] = None,
        k: Optional[int] = None,
        context_pool: Optional[SearchContextPool] = None,
    ) -> ServiceResult:
        """Serve one query; accepts a :class:`RouteQuery` or raw coords.

        ``context_pool`` shares search-context tree cells across calls
        (the batch path; see :meth:`plan_many`) — single queries leave
        it None and get a private per-query context.

        Raises :class:`QueryError` when the query is invalid or *every*
        approach failed to produce a usable route; partial planner
        failures degrade the result instead (see ``errors``).
        """
        if isinstance(source_lat, RouteQuery):
            query = source_lat
            if source_lon is not None or target_lat is not None:
                raise QueryError(
                    "pass either a RouteQuery or four coordinates, not both"
                )
        else:
            query = RouteQuery(
                source_lat, source_lon, target_lat, target_lon,
                approaches=approaches, k=k,
            )
        started = time.perf_counter()
        metrics = self.metrics
        metrics.inc("queries.total")
        try:
            # Shed-before-queue: reject now rather than letting the
            # query wait for planner capacity it would time out on.
            self._gate.acquire()
        except ServiceOverloadedError as exc:
            metrics.inc("queries.shed")
            logger.warning("query shed: %s", exc)
            raise
        try:
            # Pin the live-traffic epoch (if any) around the whole
            # serve + log path, so every planner of the query reads the
            # same weight vector even if the controller swaps epochs
            # mid-query.
            with self._epoch_pin(), self.tracer.trace(
                "query", k=query.k
            ) as root:
                try:
                    with profiling_scope(self.profiler):
                        result = self._serve(query, context_pool=context_pool)
                except Exception as exc:
                    metrics.inc("queries.failed")
                    logger.warning(
                        "query failed: %s: %s", type(exc).__name__, exc
                    )
                    self._log_query(query, root, error=exc, started=started)
                    raise
                root.set_attribute("source_node", result.source_node)
                root.set_attribute("target_node", result.target_node)
                root.set_attribute("cache_hits", result.cache_hits)
                root.set_attribute("degraded", result.degraded)
                self._log_query(query, root, result=result, started=started)
        finally:
            self._gate.release()
        if result.degraded:
            metrics.inc("queries.degraded")
            logger.warning(
                "query degraded: %s",
                "; ".join(
                    f"{label}: {message}"
                    for label, message in sorted(result.errors.items())
                ),
            )
        elapsed = time.perf_counter() - started
        metrics.observe("query.total", elapsed)
        logger.info(
            "served %d -> %d in %.1f ms (approaches=%d, cache_hits=%d)",
            result.source_node,
            result.target_node,
            elapsed * 1000.0,
            len(result.route_sets),
            result.cache_hits,
        )
        return result

    def plan_many(self, queries: Iterable[RouteQuery]) -> BatchResult:
        """Serve a batch of queries with cross-query tree reuse.

        One :class:`~repro.core.search_context.SearchContextPool` backs
        the whole batch, so queries sharing a snapped origin compute the
        origin's forward SP tree once (and symmetrically for shared
        targets) — the tree-reuse batch workload of the
        shortest-path-stability and route-diversification studies.
        Each query still runs the full planning, caching, degradation
        and resilience machinery of :meth:`query`.

        Per-query failures (bad endpoints, overload sheds, every
        approach failing) are captured as :class:`BatchItemOutcome`
        error markers instead of aborting the batch.
        """
        batch = [
            query if isinstance(query, RouteQuery) else RouteQuery(*query)
            for query in queries
        ]
        pool = (
            SearchContextPool(self.processor.network)
            if self.share_context
            else None
        )
        self.metrics.inc("batch.batches")
        started = time.perf_counter()
        outcomes: List[BatchItemOutcome] = []
        # One epoch for the whole batch: tree cells cached in the pool
        # were priced on the pinned weights, so later queries of the
        # batch must keep reading them even if the live controller
        # swaps epochs between items.
        with self._epoch_pin():
            for index, query in enumerate(batch):
                self.metrics.inc("batch.queries")
                try:
                    result = self.query(query, context_pool=pool)
                except Exception as exc:
                    outcomes.append(
                        BatchItemOutcome(
                            index=index,
                            query=query,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    continue
                outcomes.append(
                    BatchItemOutcome(index=index, query=query, result=result)
                )
        elapsed = time.perf_counter() - started
        self.metrics.observe("batch.total", elapsed)
        context_stats = pool.stats_payload() if pool is not None else {}
        logger.info(
            "served batch of %d (%d ok) in %.1f ms (tree hits=%s)",
            len(batch), sum(1 for o in outcomes if o.ok),
            elapsed * 1000.0, context_stats.get("tree_hits", "n/a"),
        )
        return BatchResult(
            outcomes=tuple(outcomes),
            elapsed_s=elapsed,
            context_stats=context_stats,
        )

    def render(self, result: ServiceResult) -> Dict:
        """The webapp payload for a served result (timed render stage)."""
        weights = self.processor.display_weights()
        with profiling_scope(self.profiler, "render"), \
                tracing_span("render") as render_span, \
                self.metrics.time("stage.render"):
            routes = {
                label: route_set_to_feature_collection(
                    route_set, weights, label
                )
                for label, route_set in result.route_sets.items()
            }
            render_span.set_attribute("approaches", len(routes))
        return {
            "fastest_minutes": result.fastest_minutes,
            "source_node": result.source_node,
            "target_node": result.target_node,
            "routes": routes,
            "errors": dict(result.errors),
            "degraded": result.degraded,
            "cache_hits": result.cache_hits,
        }

    def respond(self, result: ServiceResult) -> RouteResponse:
        """The versioned wire response for a served result.

        Same rendered content as :meth:`render`, wrapped in the typed
        :class:`~repro.serving.query.RouteResponse` envelope the
        ``/api/route`` endpoint and ``repro batch --json`` emit.
        """
        payload = self.render(result)
        return RouteResponse(
            source_node=payload["source_node"],
            target_node=payload["target_node"],
            fastest_minutes=payload["fastest_minutes"],
            routes=payload["routes"],
            errors=payload["errors"],
            degraded=payload["degraded"],
            cache_hits=payload["cache_hits"],
        )

    def answer(self, request) -> Dict:
        """Answer one ``/api/route`` request, the same way in every deployment.

        ``request`` is a :class:`~repro.serving.query.RouteRequest` or
        its JSON body (parsed here; a malformed body raises
        :class:`QueryError`).  The query runs inside a ``request``
        trace.  Returns ``{"response", "fingerprints", "epoch"}``:
        the versioned response JSON, each label's route-set
        fingerprint, and the live-traffic epoch (None without one).
        """
        if not isinstance(request, RouteRequest):
            request = RouteRequest.from_json(request)
        with self.tracer.trace("request", endpoint="/api/route"):
            result = self.query(request.to_query())
            return {
                "response": self.respond(result).to_json(),
                "fingerprints": result_fingerprints(result),
                "epoch": self.active_epoch_id(),
            }

    def metrics_payload(self) -> Dict:
        """Counters, histograms, cache, circuits and admission stats."""
        payload = self.metrics.snapshot()
        payload["cache"] = self.cache.stats().to_payload()
        payload["circuits"] = self.circuits_payload()
        payload["admission"] = self._gate.snapshot()
        if self.query_log is not None:
            payload["query_log"] = self.query_log.stats_payload()
        if self.live is not None:
            payload["traffic"] = self.live.stats_payload()
        return payload

    def profile_payload(self) -> Dict:
        """The aggregated phase tree for ``GET /debug/profile``."""
        return self.profiler.to_payload()

    def circuits_payload(self) -> Dict[str, Dict]:
        """Per-approach circuit-breaker state (empty when disabled)."""
        return {
            approach: breaker.snapshot()
            for approach, breaker in sorted(self._breakers.items())
        }

    def open_circuits(self) -> List[str]:
        """Approaches whose circuit is not closed (open or half-open)."""
        return sorted(
            approach
            for approach, breaker in self._breakers.items()
            if breaker.state != CIRCUIT_CLOSED
        )

    def traces_payload(self, limit: Optional[int] = None) -> Dict:
        """Recently finished traces (newest first) for ``/trace``."""
        return {"traces": self.tracer.recent(limit)}

    # -- internals ----------------------------------------------------------

    def _log_query(
        self,
        query: RouteQuery,
        root,
        result: Optional[ServiceResult] = None,
        error: Optional[BaseException] = None,
        started: float = 0.0,
    ) -> None:
        """Emit one sampled query-log record; never raises into serving."""
        log = self.query_log
        if log is None or not log.sample():
            return
        try:
            log.write(
                build_query_record(
                    query,
                    root,
                    result=result,
                    error=error,
                    elapsed_s=time.perf_counter() - started,
                    open_circuits=self.open_circuits(),
                    epoch=active_epoch(),
                )
            )
        except Exception:
            logger.exception("query-log record failed")

    def _resolve_approaches(self, query: RouteQuery) -> Tuple[str, ...]:
        planners = self.processor.planners
        if query.approaches is None:
            return tuple(
                name for name in APPROACHES if name in planners
            ) or tuple(planners)
        unknown = [
            name for name in query.approaches if name not in planners
        ]
        if unknown:
            raise QueryError(
                f"unknown approaches {unknown}; configured: "
                f"{sorted(planners)}"
            )
        return query.approaches

    def _plan_one(
        self,
        approach: str,
        key: Tuple,
        planner: AlternativeRoutePlanner,
        source: int,
        target: int,
        query: RouteQuery,
        deadline: Deadline,
        context: Optional[SearchContext],
    ) -> ApproachOutcome:
        """Plan one cache-missed approach under the query's deadline.

        A planner that raises :class:`PlanningTimeout`, or that returns
        after the deadline expired, is a timeout: it counts in
        ``plan.timeouts.<approach>`` and feeds its circuit breaker.  An
        approach whose turn comes after the deadline expired is not
        started; it gets a timeout marker and count too, but its breaker
        is left alone because it did nothing wrong.  The breaker is
        asked only once the approach is about to start, so an approach
        that is not started never takes a half-open circuit's probe.
        """
        label = _blinded_label(approach)
        if deadline.expired:
            self.metrics.inc(f"plan.timeouts.{approach}")
            logger.warning(
                "planner %s not started: the %gs deadline expired first",
                approach, self.timeout_s,
            )
            return ApproachOutcome(
                approach=approach,
                label=label,
                error=(
                    f"TimeoutError: the {self.timeout_s:g}s deadline "
                    f"expired before the planner started"
                ),
            )
        breaker = self._breakers.get(approach)
        if breaker is not None and not breaker.allow():
            # Fast-fail an open circuit before spending the deadline.
            rejection = CircuitOpenError(approach, breaker.retry_in_s())
            self.metrics.inc(f"plan.rejected.{approach}")
            self._annotate_circuit(approach, breaker)
            logger.warning("planner %s rejected: %s", approach, rejection)
            return ApproachOutcome(
                approach=approach,
                label=label,
                error=f"CircuitOpenError: {rejection}",
            )
        started = time.perf_counter()
        try:
            # Arm the query's shared search context ambiently (rather
            # than passing context= to plan()) so wrapper planners that
            # override plan() keep working unchanged; planners that
            # cannot use the shared trees simply never read it.  The
            # deadline is armed the same way so the planner's search
            # loops can honour it.  The query's backend override rides
            # the plan() call itself: route sets are backend-independent
            # (the CH differential tier proves it), so cache entries
            # stay shared across backends.
            with search_context_scope(context), deadline_scope(deadline), \
                    self.metrics.time(f"stage.plan.{approach}"), \
                    phase(f"plan.{approach}"):
                route_set = planner.plan(
                    source, target, k=query.k, backend=query.backend
                )
            if deadline.expired:
                raise PlanningTimeout(approach)  # returned too late
        except PlanningTimeout:
            self.metrics.inc(f"plan.timeouts.{approach}")
            self._record_failure(approach, None)
            logger.warning(
                "planner %s exceeded the %gs deadline",
                approach, self.timeout_s,
            )
            return ApproachOutcome(
                approach=approach,
                label=label,
                error=(
                    f"TimeoutError: planner exceeded the "
                    f"{self.timeout_s:g}s deadline"
                ),
                elapsed_s=time.perf_counter() - started,
            )
        except Exception as error:
            self.metrics.inc(f"plan.errors.{approach}")
            self._record_failure(approach, error)
            logger.warning(
                "planner %s failed: %s: %s",
                approach, type(error).__name__, error,
            )
            return ApproachOutcome(
                approach=approach,
                label=label,
                error=f"{type(error).__name__}: {error}",
                elapsed_s=time.perf_counter() - started,
            )
        if breaker is not None:
            breaker.record_success()
        self._record_search_stats(approach, route_set)
        self.cache.put(key, route_set)
        return ApproachOutcome(
            approach=approach,
            label=label,
            route_set=route_set,
            elapsed_s=time.perf_counter() - started,
        )

    def _annotate_circuit(
        self, approach: str, breaker: CircuitBreaker
    ) -> None:
        """Expose the approach's circuit state on the ambient span."""
        span = current_span()
        if span is not None:
            span.set_attribute(f"circuit.{approach}", breaker.state)

    def _record_failure(
        self, approach: str, error: Optional[BaseException]
    ) -> None:
        """Feed one planner failure into the approach's circuit breaker.

        Query-shaped errors (bad query, genuinely disconnected pair) say
        nothing about the planner's health, so they leave the breaker
        untouched; everything else — including timeouts, passed as
        ``error=None`` — counts toward opening the circuit.
        """
        if isinstance(error, (QueryError, DisconnectedError)):
            return
        breaker = self._breakers.get(approach)
        if breaker is None:
            return
        if breaker.record_failure():
            self.metrics.inc(f"circuit.opened.{approach}")
            logger.warning(
                "circuit for %s opened after %d consecutive failures",
                approach, breaker.failure_threshold,
            )
        self._annotate_circuit(approach, breaker)

    def _record_search_stats(self, approach: str, route_set: RouteSet) -> None:
        """Flush a freshly planned route set's SearchStats into counters."""
        stats = route_set.stats
        if stats is None or stats.is_empty:
            return
        for field_name, value in stats.to_payload().items():
            if value:
                self.metrics.inc(f"search.{approach}.{field_name}", value)

    def _serve(
        self,
        query: RouteQuery,
        context_pool: Optional[SearchContextPool] = None,
    ) -> ServiceResult:
        metrics = self.metrics
        processor = self.processor
        with tracing_span("snap") as snap_span, phase("snap"):
            with metrics.time("stage.vertex_match"):
                source = processor.match_vertex(
                    query.source_lat, query.source_lon
                )
                target = processor.match_vertex(
                    query.target_lat, query.target_lon
                )
            snap_span.set_attribute("source_node", source)
            snap_span.set_attribute("target_node", target)
        if source == target:
            raise QueryError(
                "source and target snap to the same road vertex; pick "
                "points further apart"
            )
        names = self._resolve_approaches(query)

        outcomes: Dict[str, ApproachOutcome] = {}
        to_plan: List[Tuple[str, Tuple, AlternativeRoutePlanner]] = []
        with tracing_span("cache") as cache_span, phase("cache"):
            for approach in names:
                planner = processor.planners[approach]
                effective_k = (
                    query.k if query.k is not None else planner.k
                )
                key = RouteCache.make_key(
                    approach, source, target, effective_k
                )
                cached = self.cache.get(key)
                if cached is not None:
                    metrics.inc("cache.hits")
                    outcomes[approach] = ApproachOutcome(
                        approach=approach,
                        label=_blinded_label(approach),
                        route_set=cached,
                        cached=True,
                    )
                    continue
                metrics.inc("cache.misses")
                to_plan.append((approach, key, planner))
            cache_span.set_attribute("hits", len(outcomes))
            cache_span.set_attribute("misses", len(to_plan))

        # One cooperative deadline bounds the whole query, and one
        # search context serves all its planners: the first tree-using
        # planner builds each SP tree, the rest read it.  Pool-backed
        # contexts additionally share trees across the queries of a
        # batch.
        deadline = Deadline.after(self.timeout_s)
        search_context: Optional[SearchContext] = None
        hits_before = misses_before = 0
        if self.share_context and to_plan:
            if context_pool is not None:
                search_context = context_pool.context(source, target)
            else:
                search_context = SearchContext(
                    processor.network, source, target
                )
            hits_before = search_context.tree_hits
            misses_before = search_context.tree_misses
        for approach, key, planner in to_plan:
            outcomes[approach] = self._plan_one(
                approach, key, planner, source, target, query, deadline,
                search_context,
            )

        if search_context is not None:
            # Per-query deltas: pool-backed cells accumulate across a
            # whole batch, so subtract the totals before this query.
            hits = search_context.tree_hits - hits_before
            misses = search_context.tree_misses - misses_before
            if hits:
                metrics.inc("context.tree_hits", hits)
            if misses:
                metrics.inc("context.tree_misses", misses)

        ordered = tuple(outcomes[name] for name in names)
        route_sets = {
            outcome.label: outcome.route_set
            for outcome in ordered
            if outcome.ok
        }
        errors = {
            outcome.label: outcome.error
            for outcome in ordered
            if not outcome.ok
        }
        weights = processor.display_weights()
        with tracing_span("filter") as filter_span, phase("re-price"):
            with metrics.time("stage.re_price"):
                priced = [
                    route.travel_time_on(weights)
                    for route_set in route_sets.values()
                    for route in route_set
                ]
            filter_span.set_attribute("routes_priced", len(priced))
        if not priced:
            detail = (
                "; ".join(
                    f"{label}: {message}"
                    for label, message in sorted(errors.items())
                )
                or "every approach returned an empty route set"
            )
            raise QueryError(
                f"no approach produced a route for nodes "
                f"{source} -> {target} ({detail})"
            )
        return ServiceResult(
            source_node=source,
            target_node=target,
            fastest_minutes=round(min(priced) / 60.0),
            route_sets=route_sets,
            errors=errors,
            outcomes=ordered,
        )

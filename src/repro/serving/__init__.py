"""Production serving layer over the study's planners.

The paper's artifact was a live demo serving four alternative-route
approaches to 237 participants; this package is that serving path grown
up: an LRU route cache with explicit invalidation, serial planning in
a fixed approach order under a per-query deadline, graceful degradation
with per-approach error markers, and a metrics registry behind the
webapp's ``/metrics`` endpoint.

Entry point::

    from repro.serving import RouteQuery, RouteService

    service = RouteService.from_network(network)     # registry planners
    result = service.query(RouteQuery(-37.81, 144.96, -37.75, 145.00))
    result.route_sets["D"]                           # Penalty's routes
    result.errors                                    # {} unless degraded

Multi-process deployment (one worker per city over mmap'd snapshots)::

    from repro.serving import ShardRouter, ShardSpec

    with ShardRouter([ShardSpec("melbourne", "mel.rprn")]) as router:
        router.route(RouteRequest(...))              # routed by source
"""

from repro.exceptions import (
    CircuitOpenError,
    PlanningTimeout,
    ServiceOverloadedError,
    ShardCrashedError,
    ShardError,
    ShardUnavailableError,
    TrafficUpdateError,
)
from repro.serving.cache import (
    INVALIDATION_CAUSES,
    CacheKey,
    CacheStats,
    RouteCache,
)
from repro.serving.frontend import ShardFrontend
from repro.serving.live import (
    DEFAULT_EPOCH_HISTORY,
    DEFAULT_FEED_BREAKER_THRESHOLD,
    DEFAULT_MAX_WEIGHT_RATIO,
    QUARANTINE_REASONS,
    BatchOutcome,
    LiveTrafficController,
    TrafficEvent,
)
from repro.serving.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.serving.query import (
    ROUTE_API_VERSION,
    RouteQuery,
    RouteRequest,
    RouteResponse,
)
from repro.serving.resilience import (
    CircuitBreaker,
    Deadline,
    FaultInjectingPlanner,
    InflightGate,
    active_deadline,
    deadline_scope,
)
from repro.serving.shard import (
    SHARD_DEGRADED,
    SHARD_FAILED,
    SHARD_READY,
    ShardHandle,
    ShardRouter,
    ShardSpec,
)
from repro.serving.service import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_TIMEOUT_S,
    ApproachOutcome,
    BatchItemOutcome,
    BatchResult,
    RouteService,
    ServiceResult,
)

__all__ = [
    "ApproachOutcome",
    "BatchItemOutcome",
    "BatchOutcome",
    "BatchResult",
    "CacheKey",
    "CacheStats",
    "CircuitBreaker",
    "CircuitOpenError",
    "Counter",
    "DEFAULT_BREAKER_COOLDOWN_S",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_EPOCH_HISTORY",
    "DEFAULT_FEED_BREAKER_THRESHOLD",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_MAX_WEIGHT_RATIO",
    "DEFAULT_TIMEOUT_S",
    "Deadline",
    "FaultInjectingPlanner",
    "Histogram",
    "INVALIDATION_CAUSES",
    "InflightGate",
    "LiveTrafficController",
    "MetricsRegistry",
    "PlanningTimeout",
    "QUARANTINE_REASONS",
    "ROUTE_API_VERSION",
    "RouteCache",
    "RouteQuery",
    "RouteRequest",
    "RouteResponse",
    "RouteService",
    "SHARD_DEGRADED",
    "SHARD_FAILED",
    "SHARD_READY",
    "ServiceOverloadedError",
    "ServiceResult",
    "ShardCrashedError",
    "ShardError",
    "ShardFrontend",
    "ShardHandle",
    "ShardRouter",
    "ShardSpec",
    "ShardUnavailableError",
    "TrafficEvent",
    "TrafficUpdateError",
    "active_deadline",
    "deadline_scope",
]

"""Library-wide exception hierarchy.

Every error raised intentionally by :mod:`repro` derives from
:class:`ReproError`, so callers can catch a single base class at API
boundaries.  The sub-classes group errors by the subsystem that detects
them, not by where they surface: for example a malformed OSM document
raises :class:`OSMParseError` even when the parse was triggered through
the demo web server.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Base class for road-network construction and lookup errors."""


class NodeNotFoundError(GraphError, KeyError):
    """A referenced node id is not present in the road network."""

    def __init__(self, node_id: object) -> None:
        super().__init__(node_id)
        self.node_id = node_id

    def __str__(self) -> str:  # KeyError quotes its arg; keep a sentence.
        return f"node {self.node_id!r} is not in the road network"


class EdgeNotFoundError(GraphError, KeyError):
    """A referenced edge (or edge id) is not present in the road network."""

    def __init__(self, edge: object) -> None:
        super().__init__(edge)
        self.edge = edge

    def __str__(self) -> str:
        return f"edge {self.edge!r} is not in the road network"


class DisconnectedError(GraphError):
    """No path exists between the requested source and target."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(source, target)
        self.source = source
        self.target = target

    def __str__(self) -> str:
        return f"no path from node {self.source!r} to node {self.target!r}"


class SnapshotError(GraphError):
    """A binary network snapshot is malformed.

    Raised by :mod:`repro.graph.csr` for truncated files, wrong magic
    bytes and unsupported format versions — instead of letting
    ``struct``/``array`` unpack garbage into a half-built network.
    """


class OSMError(ReproError):
    """Base class for OpenStreetMap data handling errors."""


class OSMParseError(OSMError):
    """The OSM XML document is malformed or violates referential rules."""


class ProfileError(OSMError):
    """A way cannot be interpreted by the routing profile."""


class QueryError(ReproError):
    """A routing query is invalid (outside the service area, s == t, ...)."""


class PlanningTimeout(ReproError, TimeoutError):
    """A planner's cooperative deadline expired mid-search.

    Raised from inside the planners' search loops when the ambient
    :class:`repro.cancellation.Deadline` expires (or is cancelled), so a
    timed-out planner unwinds instead of running to completion against
    a query nobody is waiting for.
    """


class ServiceOverloadedError(ReproError):
    """The serving layer shed this query: too many queries in flight.

    Maps to HTTP 503 + ``Retry-After`` at the webapp boundary.
    ``retry_after_s`` is the suggested client back-off.
    """

    def __init__(
        self, in_flight: int, limit: int, retry_after_s: float = 1.0
    ) -> None:
        super().__init__(in_flight, limit)
        self.in_flight = in_flight
        self.limit = limit
        self.retry_after_s = retry_after_s

    def __str__(self) -> str:
        return (
            f"service overloaded: {self.in_flight} queries in flight "
            f"(limit {self.limit}); retry in {self.retry_after_s:g}s"
        )


class CircuitOpenError(ReproError):
    """An approach's circuit breaker is open; the call was not attempted."""

    def __init__(self, approach: str, retry_after_s: float) -> None:
        super().__init__(approach, retry_after_s)
        self.approach = approach
        self.retry_after_s = retry_after_s

    def __str__(self) -> str:
        return (
            f"circuit for approach {self.approach!r} is open; next probe "
            f"in {self.retry_after_s:g}s"
        )


class OutsideServiceAreaError(QueryError):
    """A query coordinate falls outside the configured service rectangle."""

    def __init__(self, lat: float, lon: float) -> None:
        super().__init__(lat, lon)
        self.lat = lat
        self.lon = lon

    def __str__(self) -> str:
        return (
            f"coordinate ({self.lat:.6f}, {self.lon:.6f}) is outside the "
            "service area"
        )


class StudyError(ReproError):
    """The user-study simulation was configured inconsistently."""


class StorageError(ReproError):
    """The SQLite response store rejected an operation."""


class ConfigurationError(ReproError):
    """An algorithm or component received invalid configuration."""


class TrafficUpdateError(ReproError):
    """A live traffic-update batch failed validation and was quarantined.

    ``reason`` is a stable machine-readable code (one of
    :data:`repro.serving.live.QUARANTINE_REASONS`), so operators can
    aggregate quarantines by cause and tests can assert on the exact
    failure mode instead of parsing the message.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(reason, message)
        self.reason = reason
        self.message = message

    def __str__(self) -> str:
        return f"traffic update rejected ({self.reason}): {self.message}"


class ShardError(ReproError):
    """Base of the multi-process shard-serving failure modes.

    ``city`` names the shard so the front end can fail one city while
    the others keep serving, and callers can assert on exactly which
    shard misbehaved.
    """

    def __init__(self, city: str, message: str) -> None:
        super().__init__(city, message)
        self.city = city
        self.message = message

    def __str__(self) -> str:
        return f"shard {self.city!r}: {self.message}"


class ShardCrashedError(ShardError):
    """The shard's worker process died while this request was in flight.

    The request is *not* transparently retried — a crash mid-query may
    have been caused by the query — but the pool respawns the worker
    with backoff, so subsequent requests succeed once the shard
    recovers.
    """


class ShardUnavailableError(ShardError):
    """No healthy worker is serving this shard right now.

    Raised while a crashed worker is between respawn attempts (the
    degraded window ``/healthz`` reports) or for a city no shard was
    configured for.  Carries ``retry_after_s`` when the pool knows its
    next respawn time.
    """

    def __init__(
        self, city: str, message: str, retry_after_s: float = 0.0
    ) -> None:
        super().__init__(city, message)
        self.retry_after_s = retry_after_s

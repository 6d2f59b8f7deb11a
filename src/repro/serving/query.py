"""The typed query/response objects accepted by the serving layer.

The paper's query processor takes "a pair of source and target
locations each represented by longitude and latitude".  The serving
layer keeps that contract but adds the per-query knobs production
callers need: restricting the query to a subset of approaches,
overriding ``k`` (the demo's "up to 3 routes") and pinning the
point-to-point serving backend for one query.

Wire format
-----------
:class:`RouteRequest` and :class:`RouteResponse` are the *versioned*
JSON shapes of the ``/api/route`` endpoint and the ``repro batch``
CLI (:data:`ROUTE_API_VERSION` stamps both).  The request is flat —
``{"version": 1, "source_lat": ..., "source_lon": ...,
"target_lat": ..., "target_lon": ..., "approaches": [...],
"k": ..., "backend": "..."}`` — and :meth:`RouteRequest.from_json` is
the one parser of route bodies.  :class:`RouteQuery` remains the
in-process query object the :class:`~repro.serving.service.RouteService`
consumes; ``RouteRequest.to_query()`` bridges the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.backend import validate_backend
from repro.exceptions import QueryError
#: Version stamped into (and accepted from) request/response JSON.
ROUTE_API_VERSION = 1

#: The request shape named in parse errors.
_FLAT_SHAPE = (
    '{"version": 1, "source_lat": ..., "source_lon": ..., '
    '"target_lat": ..., "target_lon": ...}'
)


@dataclass(frozen=True)
class RouteQuery:
    """One source/target query, with optional serving overrides.

    Parameters
    ----------
    source_lat, source_lon, target_lat, target_lon:
        The clicked coordinates, in degrees.
    approaches:
        Optional subset of approach names to run (default: all four
        study approaches).  Names are validated against the configured
        planners when the query is processed.
    k:
        Optional per-query override of the number of routes per
        approach; planners may still return fewer.
    backend:
        Optional point-to-point serving backend for this query
        (``"auto"`` | ``"dijkstra"`` | ``"alt"`` | ``"ch"``; see
        :mod:`repro.core.backend`).  ``None`` keeps each planner's
        configured backend.
    """

    source_lat: float
    source_lon: float
    target_lat: float
    target_lon: float
    approaches: Optional[Tuple[str, ...]] = None
    k: Optional[int] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        for attr in ("source_lat", "source_lon", "target_lat", "target_lon"):
            value = getattr(self, attr)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise QueryError(f"{attr} must be a number, got {value!r}")
        if self.approaches is not None:
            approaches = tuple(self.approaches)
            if not approaches:
                raise QueryError("approaches subset must be non-empty")
            if len(set(approaches)) != len(approaches):
                raise QueryError(
                    f"duplicate approach names in {approaches!r}"
                )
            for name in approaches:
                if not isinstance(name, str) or not name:
                    raise QueryError(
                        f"approach names must be non-empty strings, "
                        f"got {name!r}"
                    )
            object.__setattr__(self, "approaches", approaches)
        if self.k is not None and self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if self.backend is not None:
            try:
                validate_backend(self.backend)
            except Exception as exc:
                raise QueryError(str(exc)) from exc


def _check_version(payload: Mapping, what: str) -> int:
    version = payload.get("version", ROUTE_API_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise QueryError(f"{what} version must be an integer, got {version!r}")
    if version != ROUTE_API_VERSION:
        raise QueryError(
            f"unsupported {what} version {version} (this build speaks "
            f"version {ROUTE_API_VERSION})"
        )
    return version


@dataclass(frozen=True)
class RouteRequest:
    """The versioned wire shape of one ``/api/route`` request.

    Field-for-field the flat JSON body; :meth:`to_query` converts to
    the in-process :class:`RouteQuery` (which validates coordinates,
    approaches, ``k`` and ``backend``).
    """

    source_lat: float
    source_lon: float
    target_lat: float
    target_lon: float
    version: int = ROUTE_API_VERSION
    approaches: Optional[Tuple[str, ...]] = None
    k: Optional[int] = None
    backend: Optional[str] = None

    def to_query(self) -> RouteQuery:
        """The validated in-process query for this request."""
        return RouteQuery(
            source_lat=self.source_lat,
            source_lon=self.source_lon,
            target_lat=self.target_lat,
            target_lon=self.target_lon,
            approaches=self.approaches,
            k=self.k,
            backend=self.backend,
        )

    def to_json(self) -> Dict:
        """The flat versioned JSON body (optional fields omitted)."""
        payload: Dict = {
            "version": self.version,
            "source_lat": self.source_lat,
            "source_lon": self.source_lon,
            "target_lat": self.target_lat,
            "target_lon": self.target_lon,
        }
        if self.approaches is not None:
            payload["approaches"] = list(self.approaches)
        if self.k is not None:
            payload["k"] = self.k
        if self.backend is not None:
            payload["backend"] = self.backend
        return payload

    @classmethod
    def from_json(cls, payload: Mapping) -> "RouteRequest":
        """Parse a flat versioned request body.

        The one parser of route bodies: a missing or malformed field
        raises :class:`QueryError` naming the flat shape, so the
        retired nested ``{"source": {"lat", "lon"}, ...}`` body is
        rejected too.
        """
        if not isinstance(payload, Mapping):
            raise QueryError(
                f"route request must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        _check_version(payload, "route request")
        try:
            approaches: Optional[Sequence[str]] = payload.get("approaches")
            k = payload.get("k")
            request = cls(
                source_lat=float(payload["source_lat"]),
                source_lon=float(payload["source_lon"]),
                target_lat=float(payload["target_lat"]),
                target_lon=float(payload["target_lon"]),
                approaches=tuple(approaches) if approaches else None,
                k=int(k) if k is not None else None,
                backend=payload.get("backend"),
            )
        except KeyError as exc:
            raise QueryError(
                f"route request lacks {exc}; send the flat shape "
                f"{_FLAT_SHAPE}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise QueryError(f"bad route request payload: {exc}") from exc
        request.to_query()  # validate eagerly, with the query's errors
        return request


@dataclass(frozen=True)
class RouteResponse:
    """The versioned wire shape of one served ``/api/route`` answer.

    ``routes`` maps each blinded approach label to its GeoJSON feature
    collection (the render stage's output); ``errors`` maps the labels
    that failed to a human-readable marker.  Built from a
    :class:`~repro.serving.service.ServiceResult` by
    :meth:`~repro.serving.service.RouteService.respond`.
    """

    source_node: int
    target_node: int
    fastest_minutes: int
    routes: Dict[str, Dict]
    errors: Dict[str, str] = field(default_factory=dict)
    degraded: bool = False
    cache_hits: int = 0
    version: int = ROUTE_API_VERSION

    def to_json(self) -> Dict:
        """The versioned JSON body the webapp serves."""
        return {
            "version": self.version,
            "source_node": self.source_node,
            "target_node": self.target_node,
            "fastest_minutes": self.fastest_minutes,
            "routes": dict(self.routes),
            "errors": dict(self.errors),
            "degraded": self.degraded,
            "cache_hits": self.cache_hits,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "RouteResponse":
        """Parse a response body (client side of the wire format)."""
        if not isinstance(payload, Mapping):
            raise QueryError(
                f"route response must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        version = _check_version(payload, "route response")
        try:
            return cls(
                version=version,
                source_node=int(payload["source_node"]),
                target_node=int(payload["target_node"]),
                fastest_minutes=int(payload["fastest_minutes"]),
                routes=dict(payload["routes"]),
                errors=dict(payload.get("errors", {})),
                degraded=bool(payload.get("degraded", False)),
                cache_hits=int(payload.get("cache_hits", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"bad route response payload: {exc}") from exc

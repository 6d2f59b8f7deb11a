"""Planner factory registry: approach name -> configured planner.

The paper's §3 "Parameter Details" fixes one parameterisation for the
whole study — penalty factor 1.4, stretch upper bound 1.4, θ = 0.5,
up to k = 3 routes, commercial snapshots at 3 am.  Before this module
every caller (query processor, webapp, CLI, benchmarks) hand-wired the
four constructors and repeated those literals; now they ask the
registry instead::

    from repro.core.registry import make_planner, paper_planners

    planner = make_planner("Penalty", network)          # paper defaults
    planner = make_planner("Penalty", network, k=5)     # override
    planners = paper_planners(network)                  # all four, blinded order

The registry is extensible: :func:`register_planner` accepts any
callable producing an :class:`AlternativeRoutePlanner`, so experiment
variants (and the §2.4 baselines, pre-registered below) plug into the
same serving and CLI paths as the study approaches.

Capabilities and backends
-------------------------
Each spec declares what its planner needs and supports —
``requires_preprocessing`` (an attached structure must be built before
the first query), ``supports_context`` (the planner consumes the
shared :class:`~repro.core.search_context.SearchContext` trees) and
``point_to_point_backend`` (which serving backend its default-weight
searches dispatch to).  Callers read them through
:func:`planner_capabilities` instead of introspecting planner classes.
:func:`make_planner` additionally accepts ``backend=`` ("auto" |
"dijkstra" | "alt" | "ch") to pin the built planner's point-to-point
backend, ensuring the backing structure (landmarks, contraction
hierarchy) is attached before the planner is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.backend import validate_backend
from repro.core.base import (
    DEFAULT_K,
    DEFAULT_STRETCH_BOUND,
    AlternativeRoutePlanner,
)
from repro.core.ch_via import ChViaNodePlanner
from repro.core.commercial import CommercialEngine
from repro.core.dissimilarity import DEFAULT_THETA, DissimilarityPlanner
from repro.core.ksplo import LimitedOverlapPlanner, OnePassPlanner
from repro.core.penalty import DEFAULT_PENALTY_FACTOR, PenaltyPlanner
from repro.core.plateaus import PlateauPlanner
from repro.core.via_node import ViaNodePlanner
from repro.core.yen import YenPlanner
from repro.exceptions import ConfigurationError
from repro.graph.network import RoadNetwork
from repro.observability.logs import get_logger

logger = get_logger(__name__)

#: Hour of day of the commercial engine's traffic snapshot (§3: routes
#: "fetched at 3:00 am" to approximate free-flow conditions).
PAPER_COMMERCIAL_HOUR = 3.0

#: The four study approaches, in the paper's blinded A-D order.
PAPER_APPROACHES: Tuple[str, ...] = (
    "Google Maps",
    "Plateaus",
    "Dissimilarity",
    "Penalty",
)

#: The paper's §3 parameter block, in one place.
PAPER_PARAMETERS = {
    "k": DEFAULT_K,
    "penalty_factor": DEFAULT_PENALTY_FACTOR,
    "stretch_bound": DEFAULT_STRETCH_BOUND,
    "theta": DEFAULT_THETA,
    "commercial_hour": PAPER_COMMERCIAL_HOUR,
}

#: Capability keys every spec carries, with their conservative defaults.
DEFAULT_CAPABILITIES: Mapping[str, object] = {
    "requires_preprocessing": False,
    "supports_context": False,
    "point_to_point_backend": "dijkstra",
}


@dataclass(frozen=True)
class PlannerSpec:
    """One registry entry: how to build a named approach.

    ``defaults`` holds the paper's parameters for the approach; callers
    override per-keyword at :meth:`build` time.  ``capabilities``
    declares what the planner needs and supports (see
    :data:`DEFAULT_CAPABILITIES`); unknown keys are rejected so typos
    fail at registration, not at capability-query time.
    """

    name: str
    factory: Callable[..., AlternativeRoutePlanner]
    defaults: Mapping[str, object] = field(default_factory=dict)
    description: str = ""
    capabilities: Mapping[str, object] = field(
        default_factory=lambda: dict(DEFAULT_CAPABILITIES)
    )

    def build(
        self, network: RoadNetwork, **overrides: object
    ) -> AlternativeRoutePlanner:
        """Construct the planner with defaults merged under overrides."""
        params = {**self.defaults, **overrides}
        return self.factory(network, **params)


_REGISTRY: Dict[str, PlannerSpec] = {}


def register_planner(
    name: str,
    factory: Callable[..., AlternativeRoutePlanner],
    defaults: Optional[Mapping[str, object]] = None,
    description: str = "",
    overwrite: bool = False,
    capabilities: Optional[Mapping[str, object]] = None,
) -> PlannerSpec:
    """Register a planner factory under ``name``.

    ``capabilities`` overrides entries of :data:`DEFAULT_CAPABILITIES`
    (partial mappings are merged over the defaults).  Raises
    :class:`ConfigurationError` on duplicate names unless ``overwrite``
    is set (experiment variants replace study defaults deliberately,
    never by accident).
    """
    if not name:
        raise ConfigurationError("planner name must be non-empty")
    replaced = name in _REGISTRY
    if replaced and not overwrite:
        raise ConfigurationError(
            f"planner {name!r} already registered; pass overwrite=True "
            "to replace it"
        )
    merged = dict(DEFAULT_CAPABILITIES)
    if capabilities:
        unknown = set(capabilities) - set(DEFAULT_CAPABILITIES)
        if unknown:
            raise ConfigurationError(
                f"unknown capability keys {sorted(unknown)}; known: "
                f"{sorted(DEFAULT_CAPABILITIES)}"
            )
        merged.update(capabilities)
    validate_backend(str(merged["point_to_point_backend"]))
    spec = PlannerSpec(
        name=name,
        factory=factory,
        defaults=dict(defaults or {}),
        description=description,
        capabilities=merged,
    )
    _REGISTRY[name] = spec
    logger.debug(
        "registered planner %r%s", name, " (replaced)" if replaced else ""
    )
    return spec


def planner_spec(name: str) -> PlannerSpec:
    """Return the registered spec, with a helpful error for typos."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown planner {name!r}; registered planners: "
            f"{sorted(_REGISTRY)}"
        ) from None


def available_planners() -> Tuple[str, ...]:
    """All registered approach names, registration order preserved."""
    return tuple(_REGISTRY)


def planner_capabilities(name: str) -> Dict[str, object]:
    """The named approach's capability mapping (a defensive copy).

    The supported way for serving code to learn what a planner needs —
    callers stop introspecting planner classes directly.
    """
    return dict(planner_spec(name).capabilities)


def make_planner(
    name: str,
    network: RoadNetwork,
    backend: str = "auto",
    **overrides: object,
) -> AlternativeRoutePlanner:
    """Build the named approach with the paper's defaults.

    Keyword arguments override individual defaults, e.g.
    ``make_planner("Dissimilarity", network, theta=0.8)``.

    ``backend`` pins the planner's point-to-point backend ("auto" |
    "dijkstra" | "alt" | "ch"; see :mod:`repro.core.backend`).
    Requesting "ch" or "alt" builds and attaches the backing structure
    up front — as does a spec that declares
    ``requires_preprocessing`` — so the returned planner never pays
    preprocessing inside a query.
    """
    validate_backend(backend)
    spec = planner_spec(name)
    # An explicit backend request names the structure to attach; under
    # "auto" a spec that requires preprocessing gets the structure its
    # declared point-to-point backend names.
    preprocessing_backend = backend
    if backend == "auto" and spec.capabilities["requires_preprocessing"]:
        preprocessing_backend = str(
            spec.capabilities["point_to_point_backend"]
        )
    if preprocessing_backend == "ch":
        from repro.core.ch import ensure_hierarchy

        ensure_hierarchy(network)
    elif preprocessing_backend == "alt":
        from repro.core.alt import ensure_landmarks

        ensure_landmarks(network)
    planner = spec.build(network, **overrides)
    planner.backend = backend
    return planner


def paper_planners(
    network: RoadNetwork, traffic_seed: int = 0
) -> Dict[str, AlternativeRoutePlanner]:
    """The four study approaches with the paper's §3 parameters.

    ``traffic_seed`` seeds the commercial engine's private data; the
    Figure-4 experiment varies it to find illustrative disagreements.
    """
    planners: Dict[str, AlternativeRoutePlanner] = {}
    for name in PAPER_APPROACHES:
        overrides = (
            {"traffic_seed": traffic_seed} if name == "Google Maps" else {}
        )
        planners[name] = make_planner(name, network, **overrides)
    return planners


def _commercial_factory(
    network: RoadNetwork,
    k: int = DEFAULT_K,
    departure_hour: float = PAPER_COMMERCIAL_HOUR,
    traffic_seed: int = 0,
    provider=None,
    **kwargs: object,
) -> CommercialEngine:
    """Build the commercial engine, seeding its private data provider."""
    from repro.traffic.provider import CommercialDataProvider

    if provider is None:
        provider = CommercialDataProvider(network, seed=traffic_seed)
    return CommercialEngine(
        network,
        k=k,
        provider=provider,
        departure_hour=departure_hour,
        **kwargs,
    )


# The study's four approaches (paper §3 defaults).
register_planner(
    "Google Maps",
    _commercial_factory,
    defaults={
        "k": DEFAULT_K,
        "departure_hour": PAPER_COMMERCIAL_HOUR,
        "traffic_seed": 0,
    },
    description="simulated commercial engine on private 3 am traffic",
    # Plans on private traffic weights: its two trees run on the plain
    # Dijkstra kernel (CSR when attached, never ALT or CH), and the
    # shared default-weight trees are useless to it.
    capabilities={"point_to_point_backend": "dijkstra"},
)
register_planner(
    "Plateaus",
    PlateauPlanner,
    defaults={"k": DEFAULT_K, "stretch_bound": DEFAULT_STRETCH_BOUND},
    description="Choice-Routing-style plateaus (§2.2)",
    capabilities={
        "supports_context": True,
        "point_to_point_backend": "auto",
    },
)
register_planner(
    "Dissimilarity",
    DissimilarityPlanner,
    defaults={
        "k": DEFAULT_K,
        "theta": DEFAULT_THETA,
        "stretch_bound": DEFAULT_STRETCH_BOUND,
    },
    description="SSVP-D+ θ-dissimilar via-paths (§2.3)",
    capabilities={
        "supports_context": True,
        "point_to_point_backend": "auto",
    },
)
register_planner(
    "Penalty",
    PenaltyPlanner,
    defaults={
        "k": DEFAULT_K,
        "penalty_factor": DEFAULT_PENALTY_FACTOR,
    },
    description="iterative edge penalisation (§2.1)",
    # Its first, unpenalised search is the shared forward tree's path;
    # the penalised re-searches run on the plain Dijkstra kernel (CSR
    # when attached, never ALT or CH, which price default weights only).
    capabilities={
        "supports_context": True,
        "point_to_point_backend": "dijkstra",
    },
)

# §2.4 baselines, so benchmarks and the CLI reach them the same way.
register_planner(
    "Yen",
    YenPlanner,
    defaults={"k": DEFAULT_K},
    description="Yen's k-shortest paths baseline (§2.4)",
    capabilities={"point_to_point_backend": "dijkstra"},
)
register_planner(
    "ViaNode",
    ViaNodePlanner,
    defaults={"k": DEFAULT_K, "stretch_bound": DEFAULT_STRETCH_BOUND},
    description="generic via-node family baseline (§2.4)",
    capabilities={
        "supports_context": True,
        "point_to_point_backend": "auto",
    },
)
register_planner(
    "LimitedOverlap",
    LimitedOverlapPlanner,
    defaults={"k": DEFAULT_K},
    description="k-SPwLO limited-overlap baseline (§2.4)",
    capabilities={"point_to_point_backend": "dijkstra"},
)
register_planner(
    "OnePass",
    OnePassPlanner,
    defaults={"k": DEFAULT_K},
    description="OnePass limited-overlap baseline (§2.4)",
    capabilities={"point_to_point_backend": "dijkstra"},
)

# The hierarchy-backed via-node planner (Abraham et al.'s X-via-node
# recipe over the CH search-space overlap).
register_planner(
    "ChViaNode",
    ChViaNodePlanner,
    defaults={"k": DEFAULT_K, "stretch_bound": DEFAULT_STRETCH_BOUND},
    description="CH search-space-overlap via-node alternatives",
    capabilities={
        "requires_preprocessing": True,
        "point_to_point_backend": "ch",
    },
)

"""repro — reproduction of "Comparing Alternative Route Planning
Techniques: A Comparative User Study on Melbourne, Dhaka and Copenhagen
Road Networks" (Li, Cheema, Lu, Ali, Toosi; ICDE 2022).

The library ships four layers, each usable on its own:

* **Road networks** — :mod:`repro.graph`, :mod:`repro.osm`,
  :mod:`repro.cities`: build routable networks from OSM XML (real or
  generated by the seeded synthetic city generators) using the paper's
  travel-time weighting.
* **Planners** — :mod:`repro.algorithms`, :mod:`repro.core`: shortest
  paths plus the compared alternative-route approaches (Penalty,
  Plateaus, Dissimilarity/SSVP-D+, a simulated commercial engine) and
  the §2.4 baselines.
* **Evaluation** — :mod:`repro.metrics`, :mod:`repro.stats`,
  :mod:`repro.study`: route-quality metrics, one-way ANOVA, and the
  full 237-response user-study simulation behind Tables 1-3.
* **Demo system** — :mod:`repro.demo`: the paper's web demo (query
  processor, blinded A-D display, SQLite feedback store) as an offline
  web app on the serving layer's asyncio HTTP front end.
* **Serving layer** — :mod:`repro.serving`: the production route
  service over the study planners (LRU route cache, serial planning
  in A-D order under a per-query deadline, graceful degradation,
  ``/metrics``, per-city shard workers and the one HTTP front end).
* **Observability** — :mod:`repro.observability`: per-query tracing,
  structured (JSON) logging with trace correlation, planner search
  counters, and Prometheus text exposition for ``/metrics``.

Quickstart::

    from repro import melbourne, make_planner, paper_planners

    network = melbourne(size="small")
    planners = paper_planners(network)
    routes = planners["Plateaus"].plan(source=0, target=99)
    for route in routes:
        print(route.travel_time_minutes(), "min")

Serving::

    from repro import RouteQuery, RouteService

    service = RouteService.from_network(network)
    result = service.query(RouteQuery(-37.81, 144.96, -37.75, 145.00))
"""

from repro.algorithms import (
    ContractionHierarchy,
    HubLabeling,
    bidirectional_dijkstra,
    dijkstra,
    shortest_path,
)
from repro.cities import copenhagen, dhaka, melbourne
from repro.core import (
    AlternativeRouteGraph,
    AlternativeRoutePlanner,
    CchBackend,
    ChViaNodePlanner,
    CommercialEngine,
    DissimilarityPlanner,
    LimitedOverlapPlanner,
    OnePassPlanner,
    ParetoPlanner,
    PenaltyPlanner,
    PlannerSpec,
    PlateauPlanner,
    RouteSet,
    ViaNodePlanner,
    YenPlanner,
    available_planners,
    ensure_hierarchy,
    make_planner,
    paper_planners,
    planner_capabilities,
    register_planner,
)
from repro.cancellation import Deadline, active_deadline, deadline_scope
from repro.exceptions import (
    CircuitOpenError,
    PlanningTimeout,
    ReproError,
    ServiceOverloadedError,
)
from repro.experiments import (
    build_study_network,
    default_planners,
    run_study,
)
from repro.core.alt import LandmarkTable, ensure_landmarks
from repro.graph import (
    CsrGraph,
    Path,
    RoadNetwork,
    RoadNetworkBuilder,
    ensure_csr,
    load_snapshot,
    save_snapshot,
)
from repro.observability import (
    SearchStats,
    Tracer,
    configure_logging,
    get_logger,
    render_prometheus,
)
from repro.serving import (
    ROUTE_API_VERSION,
    CircuitBreaker,
    FaultInjectingPlanner,
    InflightGate,
    MetricsRegistry,
    RouteCache,
    RouteQuery,
    RouteRequest,
    RouteResponse,
    RouteService,
    ServiceResult,
)
from repro.stats import one_way_anova, pairwise_welch, welch_t_test
from repro.study import StudyConfig, SurveyRunner
from repro.traffic import CommercialDataProvider, TrafficModel

__version__ = "1.0.0"

__all__ = [
    "AlternativeRouteGraph",
    "AlternativeRoutePlanner",
    "CchBackend",
    "ChViaNodePlanner",
    "ContractionHierarchy",
    "HubLabeling",
    "OnePassPlanner",
    "CircuitBreaker",
    "CircuitOpenError",
    "CommercialDataProvider",
    "CommercialEngine",
    "CsrGraph",
    "Deadline",
    "DissimilarityPlanner",
    "FaultInjectingPlanner",
    "InflightGate",
    "LandmarkTable",
    "LimitedOverlapPlanner",
    "MetricsRegistry",
    "ParetoPlanner",
    "Path",
    "PenaltyPlanner",
    "PlannerSpec",
    "PlanningTimeout",
    "PlateauPlanner",
    "ReproError",
    "ServiceOverloadedError",
    "RoadNetwork",
    "RoadNetworkBuilder",
    "ROUTE_API_VERSION",
    "RouteCache",
    "RouteQuery",
    "RouteRequest",
    "RouteResponse",
    "RouteService",
    "RouteSet",
    "SearchStats",
    "ServiceResult",
    "StudyConfig",
    "SurveyRunner",
    "Tracer",
    "TrafficModel",
    "ViaNodePlanner",
    "YenPlanner",
    "__version__",
    "active_deadline",
    "available_planners",
    "bidirectional_dijkstra",
    "build_study_network",
    "configure_logging",
    "copenhagen",
    "deadline_scope",
    "default_planners",
    "dhaka",
    "dijkstra",
    "ensure_csr",
    "ensure_hierarchy",
    "ensure_landmarks",
    "get_logger",
    "load_snapshot",
    "make_planner",
    "melbourne",
    "one_way_anova",
    "pairwise_welch",
    "paper_planners",
    "planner_capabilities",
    "register_planner",
    "render_prometheus",
    "run_study",
    "save_snapshot",
    "shortest_path",
    "welch_t_test",
]

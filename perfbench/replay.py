"""In-process reference services, output checks and the per-layer replay.

The reference mirrors one shard worker from public APIs: the same v3
snapshot mapped with ``map_snapshot``, every registered planner from
``make_planner``, a ``RouteService`` with the worker's defaults and,
for the batch replay, a ``LiveTrafficController``.  Served HTTP answers
are compared with it route for route.

The per-layer replay times the public call into each layer from this
file: vertex matching, ``SearchContext.trees``, each study planner's
``plan``, ``travel_time_on``, ``respond().to_json()`` plus
``json.dumps``, and the customization functions behind
``LiveTrafficController.ingest``; and, for the traced run's ledger,
``RouteService.query`` plus the render as a worker runs them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import repro.core.customization as customization
from repro.cities import CITY_BUILDERS
from repro.core.registry import available_planners, make_planner
from repro.core.search_context import SearchContext
from repro.graph.csr import map_snapshot, save_snapshot
from repro.serving.live import LiveTrafficController
from repro.serving.query import RouteQuery, RouteResponse
from repro.serving.service import RouteService, ServiceResult
from repro.serving.shard import ShardSpec
from repro.study.rating import APPROACHES
from repro.traffic import TrafficModel, TrafficUpdateBatch, TrafficUpdateSource

from spans import SpanRecorder

#: Keys of a served answer compared route for route (``cache_hits``
#: legitimately differs between a warm server and a fresh reference).
COMPARED_KEYS = (
    "source_node", "target_node", "fastest_minutes", "routes", "errors",
    "degraded",
)

STUDY_LABELS = ("A", "B", "C", "D")

#: ``RouteSet.stats`` counters summed by the request replay.
SEARCH_STATS = (
    "candidates_generated", "candidates_accepted",
    "dissimilarity_evaluations", "nodes_expanded", "edges_relaxed",
    "backend_dijkstra", "backend_alt", "backend_ch",
)


def build_snapshot(city: str, size: str, path) -> None:
    """The snapshot ``repro serve --shard CITY`` would build."""
    save_snapshot(CITY_BUILDERS[city](size=size, seed=0), str(path))


def check_response(body: bytes) -> Optional[str]:
    """None when a 200 body is a complete, undegraded four-approach answer."""
    try:
        payload = json.loads(body)
        response = RouteResponse.from_json(payload)
    except ValueError as exc:
        return f"unparseable response: {exc}"
    except Exception as exc:  # QueryError from the wire parser
        return f"bad response: {type(exc).__name__}: {exc}"
    missing = [label for label in STUDY_LABELS
               if not response.routes.get(label, {}).get("features")]
    if missing:
        return f"route sets missing for {missing}"
    if response.degraded or response.errors:
        return f"degraded response: {response.errors}"
    return None


def normalised(payload: Dict) -> Dict:
    """The compared part of an answer, as it reads after a JSON round trip."""
    return json.loads(json.dumps({key: payload[key] for key in COMPARED_KEYS}))


def traffic_batches(network, seed: int, count: int) -> List[TrafficUpdateBatch]:
    """The first ``count`` rush-hour batches of a seeded 1-minute feed."""
    source = TrafficUpdateSource(
        TrafficModel(network, seed=seed), tick_minutes=1.0, seed=seed
    )
    out = []
    for batch in source.batches():
        out.append(batch)
        if len(out) == count:
            break
    return out


class Reference:
    """One in-process replica of a shard worker, built on first use."""

    def __init__(self, city: str, snapshot_path: str) -> None:
        self.city = city
        started = time.perf_counter()
        self.snapshot = map_snapshot(snapshot_path)
        self.network = self.snapshot.network
        self.map_s = time.perf_counter() - started
        self.planners = None
        self.planners_s = 0.0
        self.live = None
        self.live_s = 0.0
        self.service = None

    def serve(self, live: bool = False) -> "Reference":
        """Build the planners and the service, with a controller if ``live``."""
        if self.service is not None and (self.live is not None or not live):
            return self
        if self.planners is None:
            started = time.perf_counter()
            self.planners = {
                name: make_planner(name, self.network)
                for name in available_planners()
            }
            self.planners_s = time.perf_counter() - started
        if live:
            started = time.perf_counter()
            self.live = LiveTrafficController(self.network)
            self.live_s = time.perf_counter() - started
        if self.service is not None:
            self.service.close()
        spec = ShardSpec(city=self.city)  # the worker's service settings
        self.service = RouteService.from_network(
            self.network, planners=self.planners, live=self.live,
            cache_size=spec.cache_size, max_workers=spec.max_workers,
            timeout_s=spec.timeout_s,
        )
        return self

    def answer(self, body: Dict) -> Dict:
        service = self.serve().service
        query = RouteQuery(body["source_lat"], body["source_lon"],
                           body["target_lat"], body["target_lon"])
        return service.respond(service.query(query)).to_json()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


def compare(reference: Reference, body: Dict, served: bytes) -> Optional[str]:
    """None when the served answer equals the reference's, route for route."""
    expected = normalised(reference.answer(body))
    got = normalised(json.loads(served))
    if expected != got:
        diff = [key for key in COMPARED_KEYS if expected[key] != got[key]]
        return f"answer differs from the in-process service in {diff}"
    return None


# -- per-layer replay --------------------------------------------------------


def replay_requests(
    references: Dict[str, Reference], sample, spans: SpanRecorder
) -> Dict[str, float]:
    """Call each layer of a query directly and record one span per call.

    Returns counters summed over the sample (search statistics of the
    planners and the render byte count).
    """
    counts = dict.fromkeys(
        SEARCH_STATS + ("queries", "render_bytes", "tree_hits", "tree_misses"),
        0,
    )
    for rid, (city, body) in enumerate(sample):
        ref = references[city].serve()
        processor = ref.service.processor
        with spans.span("query", rid):
            with spans.span("snap", rid):
                source = processor.match_vertex(
                    body["source_lat"], body["source_lon"])
                target = processor.match_vertex(
                    body["target_lat"], body["target_lon"])
            context = SearchContext(ref.network, source, target)
            with spans.span("context.trees", rid):
                context.trees()
            route_sets = {}
            for label, approach in zip(STUDY_LABELS, APPROACHES):
                with spans.span(f"plan.{approach}", rid):
                    route_sets[label] = ref.planners[approach].plan(
                        source, target, context=context)
                stats = route_sets[label].stats
                if stats is not None:
                    for name in SEARCH_STATS:
                        counts[name] += getattr(stats, name)
            weights = processor.display_weights()
            with spans.span("reprice", rid):
                priced = [route.travel_time_on(weights)
                          for route_set in route_sets.values()
                          for route in route_set]
            result = ServiceResult(
                source_node=source, target_node=target,
                fastest_minutes=round(min(priced) / 60.0),
                route_sets=route_sets,
            )
            with spans.span("render", rid):
                payload = ref.service.respond(result).to_json()
            with spans.span("encode", rid):
                encoded = json.dumps(payload)
        counts["render_bytes"] += len(encoded)
        counts["tree_hits"] += context.tree_hits
        counts["tree_misses"] += context.tree_misses
        counts["queries"] += 1
    return counts


def prime(references: Dict[str, Reference], items) -> None:
    """Answer each request once, untimed, as serving warmed the worker."""
    for city, body in items:
        references[city].answer(body)


def replay_served(reference: Reference, body: Dict, rid,
                  spans: SpanRecorder) -> None:
    """Time ``RouteService.query`` and the render of one request.

    This is the worker's part of a request, as the worker runs it; the
    render stops at ``to_json()``, where the worker hands the answer to
    the pipe.
    """
    service = reference.service
    query = RouteQuery(body["source_lat"], body["source_lon"],
                       body["target_lat"], body["target_lon"])
    with spans.span("served.query", rid):
        result = service.query(query)
    with spans.span("served.render", rid):
        service.respond(result).to_json()


@contextmanager
def timed_customization(controller, spans: SpanRecorder):
    """Wrap the customization calls behind ``ingest`` with spans.

    The wrappers are instance attributes on the controller's own
    builder and customizer plus the module-level ``reweighted_csr``
    that ``EpochBuilder.build`` looks up at call time; all are restored
    on exit.
    """
    builder = controller.builder
    customizer = builder.customizer
    original_reweight = customization.reweighted_csr
    original_build = builder.build
    original_customize = customizer.customize

    def wrap(name, func):
        def timed(*args, **kwargs):
            with spans.span(name, spans.current_id):
                return func(*args, **kwargs)
        return timed

    builder.build = wrap("customize.build", original_build)
    customizer.customize = wrap("customize.cch", original_customize)
    customization.reweighted_csr = wrap("customize.reweight", original_reweight)
    try:
        yield
    finally:
        customization.reweighted_csr = original_reweight
        del builder.build
        del customizer.customize


@contextmanager
def counted_invalidations(service: RouteService, tally: Dict[str, int]):
    """Count full flushes and entries dropped by the service's cache."""
    cache = service.cache
    original_full = cache.invalidate
    original_scoped = cache.invalidate_edges

    def full(*args, **kwargs):
        dropped = original_full(*args, **kwargs)
        tally["full_flushes"] += 1
        tally["dropped"] += dropped
        return dropped

    def scoped(*args, **kwargs):
        dropped = original_scoped(*args, **kwargs)
        tally["dropped"] += dropped
        return dropped

    cache.invalidate = full
    cache.invalidate_edges = scoped
    try:
        yield
    finally:
        del cache.invalidate
        del cache.invalidate_edges


def replay_batches(
    ref: Reference, batches: List[TrafficUpdateBatch], warm_bodies,
    spans: SpanRecorder,
) -> Dict[str, float]:
    """Ingest ``batches`` in order with every customization call timed.

    ``ref`` must carry a live controller at the base epoch.  The first
    batch establishes the start-of-day weights and is applied before
    timing; ``warm_bodies`` then fill the cache so invalidation counts
    mean something.
    """
    first, rest = batches[0], batches[1:]
    ref.live.ingest(first)
    for body in warm_bodies:
        ref.answer(body)
    tally = {"full_flushes": 0, "dropped": 0}
    quarantined = dirty = 0
    with timed_customization(ref.live, spans), \
            counted_invalidations(ref.service, tally):
        for batch in rest:
            spans.current_id = batch.seq
            with spans.span("live.ingest", batch.seq):
                outcome = ref.live.ingest(batch)
            quarantined += outcome.status != "applied"
            dirty += outcome.dirty_edges
    return {
        "batches": len(rest), "quarantined": quarantined,
        "dirty_edges": dirty, **tally,
    }

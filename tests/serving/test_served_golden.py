"""Golden served answers: the paper's four approaches, frozen per city.

The differential tiers compare two live implementations against each
other; they cannot guard a change that deletes one of the two.  This
tier pins what the service *answers* instead.  For each study city at
``full`` size, the first :data:`TRIPS` ``perfbench-cold`` trips are
served by an in-process :class:`~repro.serving.service.RouteService`
running the four study approaches over a ``map_snapshot`` network, and
a per-city SHA-256 over the normalised answers is compared with the
committed copy under ``tests/serving/golden/``.  Each trip contributes:

* the normalised response keys a client compares route for route
  (``source_node``, ``target_node``, ``fastest_minutes``, the rendered
  ``routes``, ``errors``, ``degraded``), after a JSON round trip;
* every planner's routes as edge ids, travel times and lengths;
* every planner's :class:`~repro.observability.search.SearchStats`
  counters.  The planners share one search context, so the four
  tree-dependent counters are charged to whichever planner builds a
  shared tree; the answer digest pins them as per-trip sums.

Planning is serial in the fixed A-D order, so which planner builds each
shared tree is fixed too: a second digest, committed as
``served_tree_counters.json``, pins those four counters per planner.

Dijkstra's heap breaks distance ties by node id, so arc order only
decides between *parallel* arcs of equal cost, and the city networks
have none that matter.  A uniform lattice whose every street is doubled
by an equal-time service road is served the same way: which twin each
route takes depends on arc order, so a change to it shows up in the
lattice's digest.

A second pass serves the first :data:`IN_MEMORY_TRIPS` trips from the
in-memory network the snapshot was saved from and must hash equal to
the mapped pass over the same prefix.

To re-bless after an intended change::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/serving/test_served_golden.py
    git diff tests/serving/golden/   # review before committing
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.cities import CITY_BUILDERS
from repro.core.ch import attached_hierarchy
from repro.core.registry import PAPER_APPROACHES, make_planner
from repro.experiments.queries import sample_od_pairs
from repro.graph.builder import RoadNetworkBuilder
from repro.graph.csr import load_snapshot, map_snapshot, save_snapshot
from repro.serving import RouteQuery, RouteService

GOLDEN_PATH = Path(__file__).parent / "golden" / "served_answers.json"
COUNTERS_PATH = GOLDEN_PATH.with_name("served_tree_counters.json")

CITIES = ("copenhagen", "dhaka", "melbourne")
SIZE = "full"

#: Every served network by golden key: the three study cities at
#: ``full`` size, plus the tie-heavy lattice.
NETWORKS = {
    **{
        city: (lambda city=city: CITY_BUILDERS[city](size=SIZE, seed=0))
        for city in CITIES
    },
    "lattice": lambda: _doubled_lattice(10, 10),
}

#: Trips served per city from the mapped snapshot.
TRIPS = 60

#: Prefix of those trips served again from the in-memory network.
IN_MEMORY_TRIPS = 20

#: Response keys compared route for route (``cache_hits`` depends on
#: what the cache held, not on the answer).
COMPARED_KEYS = (
    "source_node", "target_node", "fastest_minutes", "routes", "errors",
    "degraded",
)

#: Counters charged to the planner that builds a shared tree (the first
#: tree-using one in A-D order).
SCHEDULE_DEPENDENT = (
    "nodes_expanded", "edges_relaxed", "context_tree_hits",
    "context_tree_misses",
)


def _doubled_lattice(rows: int, cols: int, spacing_m: float = 500.0):
    """A uniform street grid with an equal-time service road beside
    every street (longer, so the twins differ in length)."""
    builder = RoadNetworkBuilder(name="doubled-lattice")
    for r in range(rows):
        for c in range(cols):
            builder.add_node(
                r * cols + c, -37.8136 + r * 0.0045, 144.9631 + c * 0.0057
            )
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            for there in (
                here + 1 if c + 1 < cols else None,
                here + cols if r + 1 < rows else None,
            ):
                if there is None:
                    continue
                builder.add_edge(
                    here, there, spacing_m, 36.0, bidirectional=True
                )
                builder.add_edge(
                    here, there, spacing_m + 20.0, 36.0, highway="service",
                    bidirectional=True,
                )
    return builder.build()


def _trip_record(service: RouteService, network, pair):
    """The trip's answer record and its per-planner tree counters."""
    source, target = network.node(pair[0]), network.node(pair[1])
    result = service.query(
        RouteQuery(source.lat, source.lon, target.lat, target.lon)
    )
    payload = service.respond(result).to_json()
    record = {
        "answer": json.loads(
            json.dumps({key: payload[key] for key in COMPARED_KEYS})
        )
    }
    totals = dict.fromkeys(SCHEDULE_DEPENDENT, 0)
    planners = {}
    tree_counters = {}
    for label, route_set in sorted(result.route_sets.items()):
        counters = route_set.stats.to_payload()
        tree_counters[label] = {
            name: counters.pop(name) for name in SCHEDULE_DEPENDENT
        }
        for name in SCHEDULE_DEPENDENT:
            totals[name] += tree_counters[label][name]
        planners[label] = {
            "approach": route_set.approach,
            "routes": [
                [list(route.edge_ids), route.travel_time_s, route.length_m]
                for route in route_set.routes
            ],
            "stats": counters,
        }
    record["planners"] = planners
    record["search_totals"] = totals
    return record, tree_counters


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _serve(network, pairs):
    """(answer records, tree counters), one of each per trip."""
    service = RouteService.from_network(
        network, cache_size=1024, timeout_s=120.0
    )
    try:
        trips = [_trip_record(service, network, pair) for pair in pairs]
    finally:
        service.close()
    return [record for record, _ in trips], [counters for _, counters in trips]


@pytest.fixture(scope="module")
def trips(tmp_path_factory):
    """Per network: (in-memory network, its v3 snapshot path, the
    :data:`TRIPS` served trips)."""
    out = {}
    for key, build in NETWORKS.items():
        network = build()
        path = tmp_path_factory.mktemp("served") / f"{key}.rprn"
        save_snapshot(network, str(path))
        # Sample on the in-memory build; the mapped network is the
        # same graph, so the trips are identical either way.
        pairs = sample_od_pairs(network, TRIPS, label="perfbench-cold")
        out[key] = (network, str(path), pairs)
    return out


@pytest.fixture(scope="module")
def served(trips):
    """Per network: (digest of all mapped trips, mapped prefix,
    in-memory prefix, digest of all mapped tree counters), the two
    prefixes as (records, counters) pairs of lists."""
    out = {}
    for key, (network, path, pairs) in trips.items():
        mapped = map_snapshot(path)
        records, counters = _serve(mapped.network, pairs)
        memory = _serve(network, pairs[:IN_MEMORY_TRIPS])
        out[key] = (
            _digest(records),
            (records[:IN_MEMORY_TRIPS], counters[:IN_MEMORY_TRIPS]),
            memory,
            _digest(counters),
        )
    return out


def _check_golden(path: Path, digests, what: str) -> None:
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    assert path.exists(), (
        f"golden file {path} missing; run with "
        "REPRO_UPDATE_GOLDEN=1 to create it"
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    drifted = [key for key in NETWORKS if digests[key] != expected.get(key)]
    assert not drifted, (
        f"{what} drifted for {drifted}; if the change is "
        "intended, re-bless with REPRO_UPDATE_GOLDEN=1 and review the "
        "diff"
    )


def test_served_answers_match_golden(served):
    digests = {key: served[key][0] for key in NETWORKS}
    _check_golden(GOLDEN_PATH, digests, "served answers")


def test_tree_counters_per_planner_match_golden(served):
    digests = {key: served[key][3] for key in NETWORKS}
    _check_golden(COUNTERS_PATH, digests, "per-planner tree counters")


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_in_memory_network_serves_the_mapped_answers(served, key):
    _digest_all, mapped_prefix, memory_prefix, _counters = served[key]
    assert _digest(memory_prefix[0]) == _digest(mapped_prefix[0])
    assert _digest(memory_prefix[1]) == _digest(mapped_prefix[1])


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_every_trip_is_a_complete_answer(served, key):
    _digest_all, (mapped_prefix, _counters), _memory, _ = served[key]
    for record in mapped_prefix:
        assert not record["answer"]["degraded"], record["answer"]["errors"]
        assert sorted(record["planners"]) == ["A", "B", "C", "D"]


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_study_planners_never_search_an_attached_hierarchy(trips, key):
    """Shard workers build ``ChViaNode``, and with it a contraction
    hierarchy, only when a spec opts it in.  That leaves the study's
    answers unchanged only because the four study planners never search
    the hierarchy (or landmarks), although ``resolve_backend("auto")``
    picks CH whenever one is attached: they plan on the shared
    Dijkstra trees and the plain kernel."""
    _, path, pairs = trips[key]
    network = load_snapshot(path)
    make_planner("ChViaNode", network)
    assert attached_hierarchy(network) is not None
    service = RouteService.from_network(
        network, cache_size=1024, timeout_s=120.0
    )
    try:
        searched = 0
        for pair in pairs:
            source, target = network.node(pair[0]), network.node(pair[1])
            result = service.query(
                RouteQuery(source.lat, source.lon, target.lat, target.lon)
            )
            assert sorted(
                route_set.approach for route_set in result.route_sets.values()
            ) == sorted(PAPER_APPROACHES)
            for route_set in result.route_sets.values():
                searched += (
                    route_set.stats.backend_ch + route_set.stats.backend_alt
                )
    finally:
        service.close()
    assert searched == 0

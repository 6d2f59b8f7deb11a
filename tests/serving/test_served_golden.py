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
  counters.  The planners share one search context and run on two
  threads, so which planner builds a shared tree (and is charged its
  expansions) depends on scheduling: the four tree-dependent counters
  are pinned as per-trip sums, which do not.

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
from repro.experiments.queries import sample_od_pairs
from repro.graph.builder import RoadNetworkBuilder
from repro.graph.csr import map_snapshot, save_snapshot
from repro.serving import RouteQuery, RouteService

GOLDEN_PATH = Path(__file__).parent / "golden" / "served_answers.json"

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

#: Counters charged to whichever planner builds a shared tree first.
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


def _trip_record(service: RouteService, network, pair) -> dict:
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
    for label, route_set in sorted(result.route_sets.items()):
        counters = route_set.stats.to_payload()
        for name in SCHEDULE_DEPENDENT:
            totals[name] += counters.pop(name)
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
    return record


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _serve(network, pairs) -> list:
    service = RouteService.from_network(
        network, cache_size=1024, max_workers=2, timeout_s=120.0
    )
    try:
        return [_trip_record(service, network, pair) for pair in pairs]
    finally:
        service.close()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Per network: (digest of all mapped trips, mapped prefix,
    in-memory prefix), the two prefixes as record lists."""
    out = {}
    for key, build in NETWORKS.items():
        network = build()
        path = tmp_path_factory.mktemp("served") / f"{key}.rprn"
        save_snapshot(network, str(path))
        # Sample on the in-memory build; the mapped network is the
        # same graph, so the trips are identical either way.
        pairs = sample_od_pairs(network, TRIPS, label="perfbench-cold")
        mapped = map_snapshot(str(path))
        mapped_records = _serve(mapped.network, pairs)
        memory_records = _serve(network, pairs[:IN_MEMORY_TRIPS])
        out[key] = (
            _digest(mapped_records),
            mapped_records[:IN_MEMORY_TRIPS],
            memory_records,
        )
    return out


def test_served_answers_match_golden(served):
    digests = {key: served[key][0] for key in NETWORKS}
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    assert GOLDEN_PATH.exists(), (
        f"golden file {GOLDEN_PATH} missing; run with "
        "REPRO_UPDATE_GOLDEN=1 to create it"
    )
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    drifted = [key for key in NETWORKS if digests[key] != expected.get(key)]
    assert not drifted, (
        f"served answers drifted for {drifted}; if the change is "
        "intended, re-bless with REPRO_UPDATE_GOLDEN=1 and review the "
        "diff"
    )


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_in_memory_network_serves_the_mapped_answers(served, key):
    _digest_all, mapped_prefix, memory_prefix = served[key]
    assert _digest(memory_prefix) == _digest(mapped_prefix)


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_every_trip_is_a_complete_answer(served, key):
    _digest_all, mapped_prefix, _memory = served[key]
    for record in mapped_prefix:
        assert not record["answer"]["degraded"], record["answer"]["errors"]
        assert sorted(record["planners"]) == ["A", "B", "C", "D"]

"""Cross-process differential tier: sharded vs in-process serving.

The sharded deployment (spawned worker processes over mmap'd v3
snapshots, :mod:`repro.serving.shard`) must be *indistinguishable*
from the in-process :class:`~repro.serving.service.RouteService` it
wraps — same snapshot, same planners, same routes.  Equality is
checked on the blinded route fingerprints from
:func:`~repro.observability.querylog.result_fingerprints` (the replay
harness's primitive), for every registered planner on all three study
cities, and again under a live-traffic epoch applied to exactly one
shard.  Workers serve the paper's four approaches unless a spec opts
more in, so the every-planner fleet lists them all; a second fleet on
default specs must answer A-D like the nine-planner reference, whose
``ChViaNode`` has a contraction hierarchy attached.

Tests in this module mutate shared worker state (the live-epoch case
advances the melbourne shard's epoch), so they run in definition
order: full-fleet differential first, epoch differential last.
"""

from __future__ import annotations

import pytest

from repro.cities import CITY_BUILDERS
from repro.core.ch import attached_hierarchy
from repro.core.registry import available_planners, make_planner
from repro.graph.csr import load_snapshot, save_snapshot
from repro.observability.querylog import result_fingerprints
from repro.serving import RouteService
from repro.serving.live import LiveTrafficController
from repro.serving.query import RouteRequest
from repro.serving.shard import ShardRouter, ShardSpec
from repro.traffic import TrafficUpdateBatch

CITIES = ("copenhagen", "dhaka", "melbourne")

#: The shard that runs with a live-traffic controller attached.
LIVE_CITY = "melbourne"

PLANNERS = tuple(available_planners())


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    root = tmp_path_factory.mktemp("shard-differential")
    paths = {}
    for city in CITIES:
        network = CITY_BUILDERS[city](size="small", seed=0)
        path = root / f"{city}.rprn"
        save_snapshot(network, path)
        paths[city] = str(path)
    return paths


@pytest.fixture(scope="module")
def router(snapshots):
    specs = [
        ShardSpec(
            city=city,
            snapshot_path=path,
            planners=PLANNERS,
            live=(city == LIVE_CITY),
            timeout_s=120.0,
        )
        for city, path in sorted(snapshots.items())
    ]
    with ShardRouter(specs) as router:
        yield router


@pytest.fixture(scope="module")
def paper_router(snapshots):
    """Default specs: the workers build the four study approaches."""
    specs = [
        ShardSpec(city=city, snapshot_path=path, timeout_s=120.0)
        for city, path in sorted(snapshots.items())
    ]
    with ShardRouter(specs) as router:
        yield router


@pytest.fixture(scope="module")
def services(snapshots):
    """The in-process reference: same snapshots, same construction."""
    built = {}
    for city, path in snapshots.items():
        network = load_snapshot(path)
        planners = {
            name: make_planner(name, network) for name in PLANNERS
        }
        live = (
            LiveTrafficController(network) if city == LIVE_CITY else None
        )
        built[city] = RouteService.from_network(
            network, planners=planners, live=live, timeout_s=120.0
        )
    yield built
    for service in built.values():
        service.close()


def _requests(network, count=2, seed=11):
    """Deterministic routable-looking node-pair requests."""
    import random

    rng = random.Random(f"shard-diff:{seed}")
    requests = []
    while len(requests) < count:
        source = network.node(rng.randrange(network.num_nodes))
        target = network.node(rng.randrange(network.num_nodes))
        if source.id == target.id:
            continue
        requests.append(
            RouteRequest(
                source_lat=source.lat,
                source_lon=source.lon,
                target_lat=target.lat,
                target_lon=target.lon,
            )
        )
    return requests


def _expected(service, request):
    return result_fingerprints(service.query(request.to_query()))


class TestEveryPlannerEveryCity:
    @pytest.mark.parametrize("city", CITIES)
    def test_full_planner_set_matches(self, router, services, city):
        """All registered planners at once, fingerprint-for-fingerprint."""
        service = services[city]
        for request in _requests(service.processor.network):
            out = router.route(request, city=city)
            assert out["city"] == city
            expected = _expected(service, request)
            assert out["fingerprints"] == expected
            assert out["response"]["routes"].keys() == expected.keys()

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_single_planner_matches_on_all_cities(
        self, router, services, planner
    ):
        """Each planner individually, across all three study cities."""
        for city in CITIES:
            service = services[city]
            (request,) = _requests(service.processor.network, count=1)
            request = RouteRequest(
                source_lat=request.source_lat,
                source_lon=request.source_lon,
                target_lat=request.target_lat,
                target_lon=request.target_lon,
                approaches=(planner,),
            )
            out = router.route(request, city=city)
            expected = _expected(service, request)
            assert expected, f"{planner} produced no routes on {city}"
            assert out["fingerprints"] == expected, (
                f"{planner} diverged across the process boundary "
                f"on {city}"
            )

    def test_geo_routing_agrees_with_explicit_city(self, router, services):
        """Source-coordinate resolution picks the same shard."""
        for city in CITIES:
            (request,) = _requests(
                services[city].processor.network, count=1, seed=17
            )
            routed = router.route(request)
            assert routed["city"] == city
            pinned = router.route(request, city=city)
            assert routed["fingerprints"] == pinned["fingerprints"]


class TestDefaultPlannerSet:
    def test_default_shard_answers_like_the_nine_planner_service(
        self, paper_router, services
    ):
        """Leaving ``ChViaNode`` (and its hierarchy) out of a worker
        changes none of the study's A-D answers."""
        for city in CITIES:
            service = services[city]
            network = service.processor.network
            assert attached_hierarchy(network) is not None
            for request in _requests(network, count=3, seed=31):
                out = paper_router.route(request, city=city)
                expected = _expected(service, request)
                assert sorted(expected) == ["A", "B", "C", "D"]
                assert out["fingerprints"] == expected


class TestLiveEpochDifferential:
    def test_epoch_on_one_shard_matches_in_process(self, router, services):
        """A traffic epoch applied to one shard keeps equality there
        and leaves the other shards on their base epoch."""
        service = services[LIVE_CITY]
        network = service.processor.network
        (request,) = _requests(network, count=1, seed=23)

        before = router.route(request, city=LIVE_CITY)
        assert before["epoch"] == service.active_epoch_id()

        # Congest a third of the network fivefold — absolute weights,
        # applied identically to the shard worker and the reference.
        travel_times = list(network.travel_times())
        batch = TrafficUpdateBatch(
            seq=1,
            hour=8.0,
            updates={
                edge_id: travel_times[edge_id] * 5.0
                for edge_id in range(0, network.num_edges, 3)
            },
        )
        outcome = router.ingest(LIVE_CITY, batch)
        assert outcome["status"] == "applied"
        local = service.live.ingest(batch)
        assert local.status == "applied"
        assert outcome["epoch_id"] == local.epoch_id

        after = router.route(request, city=LIVE_CITY)
        assert after["epoch"] == service.active_epoch_id()
        assert after["epoch"] != before["epoch"]
        assert after["fingerprints"] == _expected(service, request)

        # The other shards never saw the batch: base epoch, and still
        # fingerprint-identical to their (un-ingested) references.
        for city in CITIES:
            if city == LIVE_CITY:
                continue
            (other,) = _requests(
                services[city].processor.network, count=1, seed=29
            )
            out = router.route(other, city=city)
            assert out["epoch"] is None
            assert out["fingerprints"] == _expected(services[city], other)

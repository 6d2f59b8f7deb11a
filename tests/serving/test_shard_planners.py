"""The planner set a shard worker builds and serves.

A worker serves the paper's four study approaches unless its
``ShardSpec(planners=...)`` opts more in.  A spec that could not serve
the study is refused in the parent, before anything is spawned, and a
request for an approach the worker does not serve is a typed
:class:`~repro.exceptions.QueryError`, which the front end answers
with a 400.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.cities import dhaka, melbourne
from repro.core.registry import PAPER_APPROACHES, available_planners
from repro.exceptions import ConfigurationError, QueryError
from repro.graph.csr import save_snapshot
from repro.serving.frontend import ShardFrontend
from repro.serving.query import RouteRequest
from repro.serving.shard import ShardRouter, ShardSpec

#: The shard on default specs, and the one that opts every planner in.
DEFAULT_CITY = "melbourne"
OPT_IN_CITY = "dhaka"


def _request(network, approaches=None):
    source = network.node(0)
    target = network.node(network.num_nodes - 1)
    return RouteRequest(
        source_lat=source.lat,
        source_lon=source.lon,
        target_lat=target.lat,
        target_lon=target.lon,
        approaches=approaches,
    )


@pytest.fixture(scope="module")
def networks():
    return {
        DEFAULT_CITY: melbourne(size="small"),
        OPT_IN_CITY: dhaka(size="small"),
    }


@pytest.fixture(scope="module")
def router(networks, tmp_path_factory):
    root = tmp_path_factory.mktemp("shard-planners")
    paths = {}
    for city, network in networks.items():
        paths[city] = str(root / f"{city}.rprn")
        save_snapshot(network, paths[city])
    specs = [
        ShardSpec(city=DEFAULT_CITY, snapshot_path=paths[DEFAULT_CITY]),
        ShardSpec(
            city=OPT_IN_CITY,
            snapshot_path=paths[OPT_IN_CITY],
            planners=available_planners(),
        ),
    ]
    with ShardRouter(specs) as router:
        yield router


class TestSpecValidation:
    @pytest.mark.parametrize(
        "planners",
        [(), PAPER_APPROACHES[1:], ("Yen", "ChViaNode")],
        ids=["empty", "lacks-google-maps", "baselines-only"],
    )
    def test_set_without_the_study_approaches_is_refused(self, planners):
        with pytest.raises(ConfigurationError, match="missing"):
            ShardSpec(city="x", planners=planners)

    def test_unregistered_planner_is_refused(self):
        with pytest.raises(ConfigurationError, match="unknown planners"):
            ShardSpec(city="x", planners=PAPER_APPROACHES + ("Nope",))


class TestServedSet:
    def test_default_worker_builds_the_paper_set(self, router):
        ready = router.handle(DEFAULT_CITY).await_ready()
        assert ready["planners"] == sorted(PAPER_APPROACHES)

    def test_unserved_approach_is_a_query_error(self, router, networks):
        request = _request(networks[DEFAULT_CITY], approaches=("Yen",))
        with pytest.raises(QueryError, match="unknown approaches"):
            router.route(request, city=DEFAULT_CITY)

    def test_opted_in_worker_serves_the_baselines(self, router, networks):
        ready = router.handle(OPT_IN_CITY).await_ready()
        assert ready["planners"] == sorted(available_planners())
        for approach in ("Yen", "ChViaNode"):
            request = _request(networks[OPT_IN_CITY], approaches=(approach,))
            out = router.route(request, city=OPT_IN_CITY)
            assert out["fingerprints"], approach

    def test_unserved_approach_is_a_400_over_http(self, router, networks):
        frontend = ShardFrontend(router)
        host, port = frontend.bind("127.0.0.1", 0)
        thread = threading.Thread(target=frontend.serve_forever, daemon=True)
        thread.start()
        try:
            body = _request(
                networks[DEFAULT_CITY], approaches=("Yen",)
            ).to_json()
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("POST", "/api/route", body=json.dumps(body))
                response = conn.getresponse()
                status, reply = response.status, json.loads(response.read())
            finally:
                conn.close()
        finally:
            frontend.shutdown()
            thread.join(10)
        assert status == 400
        assert reply["type"] == "QueryError"
        assert "Yen" in reply["error"]

"""Differential tests: CSR/ALT acceleration never changes any route.

The CSR kernel (:func:`repro.graph.csr.csr_dijkstra`) is documented as
relaxation-for-relaxation identical to the pure kernel, and the ALT
kernel as cost-identical; this suite pins both claims end to end.  For
every registered planner on seeded small builds of all three study
cities (Melbourne, Dhaka and Copenhagen), the exact node sequences of
every planned route must be identical whether the network carries a
CSR view + landmark table or nothing at all.

A second layer checks the kernels directly: full shortest-path trees
(distances *and* parent edges, forward and backward) are equal
entry-for-entry between :func:`dijkstra` and :func:`csr_dijkstra`, and
:func:`alt_shortest_path_nodes` returns a path of exactly the Dijkstra
shortest-path cost.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.algorithms.dijkstra import dijkstra
from repro.cities import CITY_BUILDERS
from repro.core.alt import alt_shortest_path_nodes, ensure_landmarks
from repro.core.registry import available_planners, make_planner
from repro.graph.csr import attached_csr, csr_dijkstra, detach_csr, ensure_csr
from repro.serving import RouteQuery, RouteService

PAIRS_PER_CITY = 3

_EPS = 1e-9


def _routable_pairs(network, count=PAIRS_PER_CITY, seed=0):
    """Deterministic, reasonably distant, connected s-t pairs."""
    rng = random.Random(f"csr-differential:{network.name}:{seed}")
    pairs = []
    attempts = 0
    while len(pairs) < count:
        attempts += 1
        assert attempts < 500, "could not find routable pairs"
        source = network.node(rng.randrange(network.num_nodes)).id
        tree = dijkstra(network, source)
        reachable = [
            node.id
            for node in network.nodes()
            if node.id != source and tree.reachable(node.id)
        ]
        if len(reachable) < 10:
            continue
        target = max(reachable, key=tree.distance)
        if (source, target) not in pairs:
            pairs.append((source, target))
    return pairs


@pytest.fixture(scope="module", params=sorted(CITY_BUILDERS))
def city(request):
    """(name, network, query pairs) for one study city, CSR detached."""
    name = request.param
    network = CITY_BUILDERS[name](size="small", seed=0)
    detach_csr(network)
    yield name, network, _routable_pairs(network)
    detach_csr(network)


def _plan_all(network, pairs):
    """{planner name: flat route-node sequences over all pairs}."""
    results = {}
    for name in available_planners():
        planner = make_planner(name, network)
        results[name] = [
            tuple(route.nodes)
            for source, target in pairs
            for route in planner.plan(source, target)
        ]
    return results


class TestPlannersIdenticalAcrossKernels:
    def test_route_sets_identical(self, city):
        """Every registered planner: same routes with and without CSR/ALT."""
        name, network, pairs = city
        detach_csr(network)
        plain = _plan_all(network, pairs)
        assert plain, "registry unexpectedly empty"
        ensure_csr(network)
        ensure_landmarks(network, count=8)
        try:
            accelerated = _plan_all(network, pairs)
        finally:
            detach_csr(network)
        for planner_name, routes in plain.items():
            assert accelerated[planner_name] == routes, (
                f"{planner_name} routes diverged on {name} once the "
                "CSR/ALT acceleration was attached"
            )


class TestKernelsIdentical:
    @pytest.mark.parametrize("forward", [True, False])
    def test_full_trees_equal(self, city, forward):
        """dist and parent_edge match entry-for-entry, both directions."""
        _, network, pairs = city
        csr = ensure_csr(network)
        try:
            for root, _ in pairs:
                pure = dijkstra(network, root, forward=forward)
                flat = csr_dijkstra(network, csr, root, forward=forward)
                assert flat.dist == pure.dist
                assert flat.parent_edge == pure.parent_edge
        finally:
            detach_csr(network)

    def test_alt_paths_have_shortest_cost(self, city):
        """ALT may tie-break differently but never costs more."""
        _, network, pairs = city
        ensure_csr(network)
        ensure_landmarks(network, count=8)
        csr = attached_csr(network)
        try:
            for source, target in pairs:
                nodes = alt_shortest_path_nodes(network, csr, source, target)
                assert nodes[0] == source and nodes[-1] == target
                cost = network.path_travel_time(nodes)
                expected = dijkstra(network, source, target=target).distance(
                    target
                )
                assert cost == pytest.approx(expected, abs=_EPS)
        finally:
            detach_csr(network)


class TestStudyPathStaysOnCsrKernel:
    def test_served_query_never_runs_the_pure_kernel(self, city, monkeypatch):
        """With a CSR view attached, a served query of the four study
        approaches runs every search on the CSR kernel — the commercial
        engine's private-weight trees and Penalty's penalised searches
        included; the pure :func:`dijkstra` is never called."""
        _, network, pairs = city
        source, target = (network.node(node) for node in pairs[0])
        ensure_csr(network)
        service = RouteService.from_network(network)
        try:
            def forbidden(*args, **kwargs):
                raise AssertionError(
                    "pure dijkstra() ran with a CSR view attached"
                )

            for name, module in list(sys.modules.items()):
                if (
                    name.startswith("repro")
                    and getattr(module, "dijkstra", None) is dijkstra
                ):
                    monkeypatch.setattr(module, "dijkstra", forbidden)
            result = service.query(
                RouteQuery(source.lat, source.lon, target.lat, target.lon)
            )
        finally:
            service.close()
            detach_csr(network)
        assert result.errors == {}
        assert sorted(result.route_sets) == ["A", "B", "C", "D"]

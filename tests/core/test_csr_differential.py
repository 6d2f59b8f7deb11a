"""Differential tests: CSR/ALT acceleration never changes any route.

The CSR kernel (:func:`repro.graph.csr.csr_dijkstra`) is documented as
relaxation-for-relaxation identical to the pure reference kernel, and
the ALT kernel as cost-identical; this suite pins both claims end to
end.  For every registered planner on seeded small builds of all three
study cities (Melbourne, Dhaka and Copenhagen), the exact node
sequences of every planned route must be identical whether every
search runs on the pure reference :func:`dijkstra` or on the CSR view
with a landmark table attached.

A second layer checks the kernels directly: full shortest-path trees
(distances *and* parent edges, forward and backward) are equal
entry-for-entry between :func:`dijkstra` and :func:`csr_dijkstra`, and
:func:`alt_shortest_path_nodes` returns a path of exactly the Dijkstra
shortest-path cost.
"""

from __future__ import annotations

import math
import random
import sys

import pytest

from repro.algorithms.dijkstra import dijkstra, kernel_dijkstra
from repro.cities import CITY_BUILDERS
from repro.core.alt import alt_shortest_path_nodes, ensure_landmarks
from repro.core.registry import available_planners, make_planner
from repro.graph.csr import csr_dijkstra, ensure_csr
from repro.serving import RouteQuery, RouteService
from tests.conftest import drop_accelerators

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
    """(name, network, query pairs) for one study city."""
    name = request.param
    network = CITY_BUILDERS[name](size="small", seed=0)
    return name, network, _routable_pairs(network)


def _reference_kernel(
    network, root, weights=None, forward=True, target=None,
    max_dist=math.inf,
):
    """:func:`kernel_dijkstra`'s signature over the pure reference."""
    return dijkstra(
        network, root, weights=weights, forward=forward, target=target,
        max_dist=max_dist,
    )


def _bind_everywhere(monkeypatch, name, original, replacement):
    """Rebind ``name`` in every repro module that imported ``original``."""
    for module_name, module in list(sys.modules.items()):
        if (
            module_name.startswith("repro")
            and getattr(module, name, None) is original
        ):
            monkeypatch.setattr(module, name, replacement)


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
    def test_route_sets_identical(self, city, monkeypatch):
        """Every registered planner: same routes on the pure reference
        kernel as on the CSR view with ALT landmarks attached."""
        name, network, pairs = city
        drop_accelerators(network)
        with monkeypatch.context() as patch:
            _bind_everywhere(
                patch, "kernel_dijkstra", kernel_dijkstra, _reference_kernel
            )
            plain = _plan_all(network, pairs)
        assert plain, "registry unexpectedly empty"
        drop_accelerators(network)
        ensure_landmarks(network, count=8)
        try:
            accelerated = _plan_all(network, pairs)
        finally:
            drop_accelerators(network)
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
        for root, _ in pairs:
            pure = dijkstra(network, root, forward=forward)
            flat = csr_dijkstra(network, csr, root, forward=forward)
            assert flat.dist == pure.dist
            assert flat.parent_edge == pure.parent_edge

    def test_alt_paths_have_shortest_cost(self, city):
        """ALT may tie-break differently but never costs more."""
        _, network, pairs = city
        ensure_landmarks(network, count=8)
        csr = ensure_csr(network)
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
            drop_accelerators(network)


class TestStudyPathStaysOnCsrKernel:
    def test_served_query_never_runs_the_pure_kernel(self, city, monkeypatch):
        """A served query of the four study approaches runs every search
        on the CSR kernel — the commercial engine's private-weight trees
        and Penalty's penalised searches included; the pure reference
        :func:`dijkstra` is never called."""
        _, network, pairs = city
        source, target = (network.node(node) for node in pairs[0])
        service = RouteService.from_network(network)
        try:
            def forbidden(*args, **kwargs):
                raise AssertionError("the pure reference dijkstra() ran")

            _bind_everywhere(monkeypatch, "dijkstra", dijkstra, forbidden)
            result = service.query(
                RouteQuery(source.lat, source.lon, target.lat, target.lon)
            )
        finally:
            service.close()
        assert result.errors == {}
        assert sorted(result.route_sets) == ["A", "B", "C", "D"]

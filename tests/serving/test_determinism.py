"""Serving the same trips twice gives the same bytes.

Planning is serial, in the fixed A-D order, so a reply's ``routes``
(and its fingerprints) list the labels in that order and two fresh
services answer a trip with byte-identical bodies.
"""

from __future__ import annotations

import json

import pytest

from repro.cities import melbourne
from repro.experiments.queries import sample_od_pairs
from repro.serving import RouteService

TRIPS = 30


@pytest.fixture(scope="module")
def network():
    return melbourne(size="small")


def _bodies(network, pairs):
    service = RouteService.from_network(network, timeout_s=120.0)
    bodies = []
    with service:
        for source_id, target_id in pairs:
            source, target = network.node(source_id), network.node(target_id)
            answer = service.answer({
                "version": 1,
                "source_lat": source.lat, "source_lon": source.lon,
                "target_lat": target.lat, "target_lon": target.lon,
            })
            bodies.append(json.dumps(answer))
    return bodies


def test_two_fresh_services_serve_identical_bytes(network):
    pairs = sample_od_pairs(network, TRIPS, label="perfbench-cold")
    first = _bodies(network, pairs)
    second = _bodies(network, pairs)
    assert len(first) == TRIPS
    for index, (one, two) in enumerate(zip(first, second)):
        assert one == two, f"trip {index} answered with different bytes"
        answer = json.loads(one)
        assert list(answer["response"]["routes"]) == ["A", "B", "C", "D"]
        assert list(answer["fingerprints"]) == ["A", "B", "C", "D"]

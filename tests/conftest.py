"""Shared fixtures: small deterministic networks reused across suites."""

from __future__ import annotations

import logging

import pytest

from repro.cities import melbourne
from repro.graph.builder import RoadNetworkBuilder, grid_network
from repro.graph.csr import ensure_csr
from repro.graph.network import RoadNetwork


def drop_accelerators(network: RoadNetwork) -> None:
    """Detach the landmark table and contraction hierarchy riding on a
    (shared, session-scoped) network's CSR view."""
    csr = ensure_csr(network)
    csr.landmarks = None
    csr.hierarchy = None


@pytest.fixture(autouse=True)
def restore_repro_logger():
    """Snapshot and restore the ``repro`` logger around every test.

    ``repro.cli.main`` calls ``configure_logging``, which stops
    propagation and binds a handler to the stderr of the moment (under
    pytest, a capture that is closed after the test).  Without the
    restore, a later test's ``caplog`` sees nothing and that handler
    writes to a closed file.
    """
    root = logging.getLogger("repro")
    saved = (root.level, list(root.handlers), root.propagate)
    yield root
    root.setLevel(saved[0])
    root.handlers[:] = saved[1]
    root.propagate = saved[2]


@pytest.fixture(scope="session")
def grid10() -> RoadNetwork:
    """A 10x10 uniform bidirectional grid (100 nodes, 360 edges)."""
    return grid_network(10, 10)


@pytest.fixture(scope="session")
def melbourne_small() -> RoadNetwork:
    """The small synthetic Melbourne network (full OSM pipeline)."""
    return melbourne(size="small")


def build_diamond() -> RoadNetwork:
    """A 6-node diamond with two equal-length braids and a slow detour.

    Layout (travel times on edges)::

            1 --2-- 3
          /            \\
        0                5
          \\            /
            2 --2-- 4
        0 --9------------ 5   (slow direct edge)

    0->1->3->5 and 0->2->4->5 both cost 4; the direct 0->5 edge costs 9.
    All edges bidirectional.
    """
    builder = RoadNetworkBuilder(name="diamond")
    coords = {
        0: (0.0, 0.0),
        1: (0.001, 0.001),
        2: (-0.001, 0.001),
        3: (0.001, 0.002),
        4: (-0.001, 0.002),
        5: (0.0, 0.003),
    }
    for node_id, (lat, lon) in coords.items():
        builder.add_node(node_id, lat, lon)
    edges = [
        (0, 1, 1.0),
        (1, 3, 2.0),
        (3, 5, 1.0),
        (0, 2, 1.0),
        (2, 4, 2.0),
        (4, 5, 1.0),
        (0, 5, 9.0),
    ]
    for u, v, weight in edges:
        builder.add_edge(
            u, v, length_m=weight * 100.0, travel_time_s=weight,
            bidirectional=True,
        )
    return builder.build()


@pytest.fixture()
def diamond() -> RoadNetwork:
    """Fresh diamond network (cheap to build; per-test isolation)."""
    return build_diamond()

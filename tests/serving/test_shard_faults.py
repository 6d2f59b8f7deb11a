"""Fault injection for the sharded serving layer.

The shard pool's failure contract, verified with a real SIGKILL:

* a request in flight on the killed worker fails with the typed
  :class:`~repro.exceptions.ShardCrashedError` — never a hang, never
  a bare queue error;
* while the shard is down, new requests fail fast with
  :class:`~repro.exceptions.ShardUnavailableError` carrying the
  respawn ETA (``retry_after_s``);
* the other shards never miss a request;
* ``/healthz`` and the Prometheus payload report the degraded window
  (state gauge, crash/restart counters, degraded-seconds total);
* the worker respawns with backoff and serves identical routes again.

The worker's debug ``sleep`` op parks its request loop so the kill
lands deterministically mid-request.
"""

from __future__ import annotations

import time

import pytest

from repro.cities import dhaka, melbourne
from repro.exceptions import (
    ConfigurationError,
    ShardCrashedError,
    ShardUnavailableError,
)
from repro.graph.csr import save_snapshot
from repro.serving.query import RouteRequest
from repro.serving.shard import (
    SHARD_READY,
    SHARD_STOPPED,
    ShardRouter,
    ShardSpec,
)


def _request(network, seed=5):
    import random

    rng = random.Random(f"shard-faults:{seed}")
    while True:
        source = network.node(rng.randrange(network.num_nodes))
        target = network.node(rng.randrange(network.num_nodes))
        if source.id != target.id:
            return RouteRequest(
                source_lat=source.lat,
                source_lon=source.lon,
                target_lat=target.lat,
                target_lon=target.lon,
            )


@pytest.fixture(scope="module")
def networks():
    return {"melbourne": melbourne(size="small"), "dhaka": dhaka(size="small")}


@pytest.fixture(scope="module")
def snapshots(networks, tmp_path_factory):
    root = tmp_path_factory.mktemp("shard-faults")
    paths = {}
    for city, network in networks.items():
        path = root / f"{city}.rprn"
        save_snapshot(network, path)
        paths[city] = str(path)
    return paths


def _specs(snapshots):
    return [
        ShardSpec(city=city, snapshot_path=path)
        for city, path in sorted(snapshots.items())
    ]


def _await_ready(handle, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while handle.state != SHARD_READY:
        if time.monotonic() > deadline:
            pytest.fail(
                f"shard never returned to ready (state={handle.state})"
            )
        time.sleep(0.05)


def test_sigkill_lifecycle(networks, snapshots):
    """One SIGKILL, observed end to end through every surface."""
    with ShardRouter(
        _specs(snapshots), backoff_base_s=0.2, backoff_cap_s=1.0
    ) as router:
        mel_request = _request(networks["melbourne"])
        dha_request = _request(networks["dhaka"])
        baseline = router.route(mel_request, city="melbourne")
        handle = router.handle("melbourne")

        # Park the worker loop, then kill it with the request in flight.
        parked = handle.submit("sleep", 30.0)
        time.sleep(0.2)
        router.kill_worker("melbourne")
        with pytest.raises(ShardCrashedError) as crashed:
            parked.result(timeout=30)
        assert crashed.value.city == "melbourne"
        assert "died" in str(crashed.value)

        # Degraded window: fail fast with a respawn ETA, keep serving
        # the other city, and report the degradation everywhere.
        degraded_seen = False
        try:
            router.route(mel_request, city="melbourne")
        except ShardUnavailableError as exc:
            degraded_seen = True
            assert exc.city == "melbourne"
            assert exc.retry_after_s >= 0.0
        for _ in range(3):
            out = router.route(dha_request, city="dhaka")
            assert out["fingerprints"]
        if degraded_seen:
            health = router.healthz_payload()
            if health["status"] == "degraded":
                assert health["degraded_shards"] == ["melbourne"]

        _await_ready(handle)
        assert handle.crashes_total == 1
        assert handle.restarts_total == 1
        assert handle.degraded_seconds_total > 0.0
        assert handle.last_degraded_window_s > 0.0

        # Same routes from the respawned worker.
        recovered = router.route(mel_request, city="melbourne")
        assert recovered["fingerprints"] == baseline["fingerprints"]

        health = router.healthz_payload()
        assert health["status"] == "ok"
        mel_block = health["shards"]["melbourne"]
        assert mel_block["crashes_total"] == 1
        assert mel_block["restarts_total"] == 1
        assert mel_block["degraded_seconds_total"] > 0.0

        prom = router.prometheus_payload()
        assert 'repro_shard_state{city="melbourne"} 0' in prom
        assert 'repro_shard_crashes_total{city="melbourne"} 1' in prom
        assert 'repro_shard_restarts_total{city="melbourne"} 1' in prom
        assert (
            'repro_shard_degraded_seconds_total{city="melbourne"}' in prom
        )

        # The untouched shard carries clean counters throughout.
        dha_block = health["shards"]["dhaka"]
        assert dha_block["crashes_total"] == 0
        assert dha_block["degraded_seconds_total"] == 0.0


def test_restart_budget_exhaustion_fails_the_shard(snapshots):
    """Crashing past the restart budget is terminal, not a hot loop.

    The budget counts *consecutive* crashes (a healthy handshake
    resets it — verified by ``test_sigkill_lifecycle``, where a kill
    after a successful respawn respawns again), so with a budget of
    zero the very first crash must land the shard in the terminal
    failed state with no respawn attempt.
    """
    specs = [
        ShardSpec(
            city="melbourne", snapshot_path=snapshots["melbourne"]
        )
    ]
    with ShardRouter(
        specs, max_restarts=0, backoff_base_s=0.05, backoff_cap_s=0.1
    ) as router:
        handle = router.handle("melbourne")
        restarts_before = handle.restarts_total
        router.kill_worker("melbourne")
        deadline = time.monotonic() + 60
        while handle.state != "failed" and time.monotonic() < deadline:
            time.sleep(0.05)
        assert handle.state == "failed"
        assert handle.restarts_total == restarts_before
        with pytest.raises(ShardUnavailableError, match="failed"):
            handle.submit("health")
        assert router.healthz_payload()["status"] == "degraded"


class TestRouterValidation:
    def test_unknown_city_is_typed(self, snapshots):
        router = ShardRouter(_specs(snapshots))  # not started
        with pytest.raises(ShardUnavailableError, match="no shard"):
            router.handle("oslo")
        router.close()

    def test_duplicate_cities_rejected(self, snapshots):
        specs = _specs(snapshots) + _specs(snapshots)[:1]
        with pytest.raises(ConfigurationError, match="duplicate"):
            ShardRouter(specs)

    def test_empty_specs_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ShardRouter([])

    def test_closed_router_reports_stopped(self, snapshots):
        router = ShardRouter(_specs(snapshots))
        router.close()
        for city in router.cities:
            assert router.handle(city).state == SHARD_STOPPED

    def test_failed_start_stops_the_spawned_workers(
        self, snapshots, tmp_path
    ):
        """One shard cannot start: the router stops the workers it
        already spawned before the error reaches the caller."""
        specs = [
            ShardSpec(city="dhaka", snapshot_path=snapshots["dhaka"]),
            ShardSpec(
                city="melbourne",
                snapshot_path=str(tmp_path / "missing.rprn"),
            ),
        ]
        router = ShardRouter(specs)
        with pytest.raises(ShardUnavailableError):
            with router:
                pytest.fail("a router with a broken shard started")
        for city in router.cities:
            handle = router.handle(city)
            assert handle.state == SHARD_STOPPED
            assert not handle._proc.is_alive()

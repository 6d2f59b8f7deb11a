"""Self-tests of the benchmark harness (not of the program under test).

    python3 -m pytest perfbench/tests -q

* Against a stub HTTP server with a fixed service time, the open-loop
  client reports p50 close to that time and the ramp finds a maximum
  rate close to connections / service time.
* Attribution: a fixed delay injected inside the timing proxy around
  ``ShardRouter.route`` must show up in that layer's self time and
  leave the other layers' self times where they were.
* A client event loop held up mid-window makes the run invalid.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import (  # noqa: E402
    judge_steps,
    open_loop,
    poisson_offsets,
    quantile,
    staircase_offsets,
    stop_at_knee,
)

SERVICE_S = 0.010
CONNECTIONS = 2


class StubServer:
    """Keep-alive HTTP server answering every request after SERVICE_S."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.port = 0
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    async def _client(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b""):
                        break
                    name, _sep, value = header.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                await reader.readexactly(length)
                await asyncio.sleep(SERVICE_S)
                body = b'{"ok": true}'
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + str(len(body)).encode() + b"\r\n\r\n" + body
                )
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        server = self.loop.run_until_complete(
            asyncio.start_server(self._client, "127.0.0.1", 0)
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        self.loop.run_forever()
        server.close()
        self.loop.run_until_complete(server.wait_closed())

    def __enter__(self) -> "StubServer":
        self._thread.start()
        assert self._ready.wait(5.0)
        return self

    def __exit__(self, *exc_info) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(5.0)
        assert not self._thread.is_alive()


def run_window(port, rate, duration, seed=0):
    import random

    offsets = poisson_offsets(rate, duration, random.Random(seed))
    bodies = [b"{}"] * len(offsets)
    return asyncio.run(open_loop(
        "127.0.0.1", port, CONNECTIONS, offsets, bodies,
        offered_rps=rate, duration_s=duration,
    ))


def test_p50_matches_the_stub_service_time():
    with StubServer() as stub:
        window = run_window(stub.port, rate=20.0, duration=3.0)
    assert len(window.ok) == window.sent > 30
    p50 = quantile(window.latencies_ms(), 0.5)
    assert 1000 * SERVICE_S <= p50 <= 1000 * SERVICE_S * 1.6


def test_max_rps_matches_connections_over_service_time():
    capacity = CONNECTIONS / SERVICE_S
    offsets, step_of, rates = staircase_offsets(
        capacity * 0.6, growth=1.05, steps=20, min_step_s=0.5,
        min_arrivals=50)
    with StubServer() as stub:
        window = asyncio.run(open_loop(
            "127.0.0.1", stub.port, CONNECTIONS, offsets,
            [b"{}"] * len(offsets),
            stop_before=stop_at_knee(step_of, limit_ms=100.0, slack=3),
        ))
    max_rps, steps = judge_steps(window, step_of, rates, 100.0, 3)
    assert steps[0].passed
    assert 0.8 * capacity <= max_rps <= 1.05 * capacity, steps


def stub_run(monkeypatch, port, blocked_s):
    """A ``run.Run`` whose client loop is stuck ``blocked_s`` mid-window."""
    import harness
    import run

    async def open_loop_with_a_stall(*args, **kwargs):
        async def stall():
            await asyncio.sleep(0.5)
            time.sleep(blocked_s)  # holds the client's event loop

        stalled = asyncio.create_task(stall())
        window = await harness.open_loop(*args, **kwargs)
        await stalled
        return window

    monkeypatch.setattr(run, "open_loop", open_loop_with_a_stall)
    config, _declared = run.load_config()
    args = argparse.Namespace(workload="hot-mix", seed=1, seconds=2.0, trace=0)
    bench = run.Run(args, config["workloads"]["hot-mix"])
    bench.deployment = types.SimpleNamespace(port=port)
    bench.requests = types.SimpleNamespace(
        draw=lambda n: [("stub", {})] * n)
    bench.window(50.0, 2.0)
    return bench


def test_a_late_generator_makes_the_run_invalid(monkeypatch):
    with StubServer() as stub:
        steady = stub_run(monkeypatch, stub.port, blocked_s=0.0)
        stalled = stub_run(monkeypatch, stub.port, blocked_s=0.3)
    assert not steady.invalid
    assert stalled.invalid and "late" in stalled.invalid[0]


def test_a_delay_in_the_router_proxy_lands_in_its_layer(monkeypatch):
    import run

    for name, value in (("CITIES", ("melbourne",)), ("SIZE", "small"),
                        ("SETUPS", 1), ("REPLAY_SAMPLE", 2),
                        ("REPLAY_BATCHES", 2), ("VERIFY_SAMPLE", 2)):
        monkeypatch.setattr(run, name, value)
    config, _declared = run.load_config()
    hot = config["workloads"]["hot-mix"]
    base = dict(hot, hot_per_city=8, rate_rps=20.0,
                ramp=dict(hot["ramp"], steps=3))
    delay_ms = 20.0
    layers = {}
    for delay in (0.0, delay_ms):
        cfg = dict(base, route_delay_ms=delay)
        args = argparse.Namespace(workload="hot-mix", seed=3, seconds=4.0,
                                  trace=1)
        bench = run.Run(args, cfg)
        try:
            result = bench.run()
        finally:
            import shutil

            shutil.rmtree(bench.work, ignore_errors=True)
        assert not bench.failures, bench.failures[:3]
        layers[delay], _samples = bench.per_layer(result)
    before, after = layers[0.0], layers[delay_ms]
    rise = after["shard.pipe_wait_ms"] - before["shard.pipe_wait_ms"]
    assert 0.8 * delay_ms <= rise <= 1.3 * delay_ms
    assert abs(after["frontend.self_ms"] - before["frontend.self_ms"]) \
        < 0.25 * delay_ms
    assert abs(after["service.query_ms"] - before["service.query_ms"]) \
        < 0.25 * delay_ms

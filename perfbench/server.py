"""The served deployment under test: ``repro serve`` plus benchmark probes.

Builds the same stack as ``repro serve --shard CITY=SNAPSHOT``:
:class:`~repro.serving.shard.ShardRouter` over v3 mmap snapshots behind
:class:`~repro.serving.frontend.ShardFrontend`.  The benchmark adds,
from this file only:

a timing proxy around the router handed to the front end (``--trace
1``), recording one span per ``ShardRouter.route`` call keyed by the
request's ``bench_rid``.

Control is line-delimited JSON: commands on stdin, one reply per
command on stdout (the first line announces the bound port).  Logs go
to stderr.  Usage::

    python perfbench/server.py --shard melbourne=PATH [--trace 1]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serving.frontend import ShardFrontend  # noqa: E402
from repro.serving.shard import ShardRouter, ShardSpec  # noqa: E402


class TimingRouter:
    """Records the span of every ``route`` call; forwards everything."""

    def __init__(self, router: ShardRouter, delay_s: float = 0.0) -> None:
        self._router = router
        self.delay_s = delay_s
        self.enabled = False
        self.spans = []
        self._lock = threading.Lock()

    def route(self, request, city=None, timeout_s=None):
        if not self.enabled:
            return self._router.route(request, city=city, timeout_s=timeout_s)
        start = time.monotonic()
        try:
            if self.delay_s:  # the harness self-test's injected slowdown
                time.sleep(self.delay_s)
            return self._router.route(request, city=city, timeout_s=timeout_s)
        finally:
            end = time.monotonic()
            rid = request.get("bench_rid") if isinstance(request, dict) else None
            with self._lock:
                self.spans.append((rid, start, end))

    def __getattr__(self, name):
        return getattr(self._router, name)


def reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def control_loop(loop, stop_future, proxy) -> None:
    """Serve stdin commands until ``stop`` or EOF."""
    for raw in sys.stdin:
        command = json.loads(raw)
        cmd = command["cmd"]
        if cmd == "trace":
            proxy.enabled = bool(command["on"])
            reply({"ok": True})
        elif cmd == "dump":
            with proxy._lock:
                spans, proxy.spans = proxy.spans, []
            reply({"ok": True, "spans": spans})
        elif cmd == "stop":
            break
    loop.call_soon_threadsafe(stop_future.set_result, None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shard", action="append", required=True,
                        help="CITY=SNAPSHOT (repeatable)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--route-delay-ms", type=float, default=0.0,
                        help="sleep inside each traced route span (self-test)")
    args = parser.parse_args()

    specs = []
    for item in args.shard:
        city, _sep, path = item.partition("=")
        specs.append(ShardSpec(city=city, snapshot_path=path))
    router = ShardRouter(specs)
    started = time.monotonic()
    router.start()
    ready_s = time.monotonic() - started
    proxy = TimingRouter(router, args.route_delay_ms / 1000.0)
    frontend = ShardFrontend(proxy if args.trace else router)

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        stop_future = loop.create_future()
        server = await frontend.start("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        pids = {city: router.handle(city).pid for city in router.cities}
        reply({"port": port, "ready_s": ready_s, "pid": os.getpid(),
               "worker_pids": pids})
        control = threading.Thread(
            target=control_loop,
            args=(loop, stop_future, proxy),
            daemon=True,
        )
        control.start()
        await stop_future
        await frontend.stop()

    try:
        asyncio.run(serve())
    finally:
        router.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

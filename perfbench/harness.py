"""The benchmark's own open-loop HTTP client and max-rate ramp.

Arrivals are pre-scheduled (Poisson, seeded), every request is timed
from its scheduled arrival, and at most ``connections`` keep-alive
connections carry them, so a stalled server makes later requests wait
in the client queue where the wait is measured.  The generator's own
lateness (how late it woke for an arrival) is recorded separately: it
checks the harness, not the program.

The maximum rate comes from a staircase: evenly spaced arrivals whose
rate rises a few percent per step without draining in between, so a
rate the server cannot sustain shows as a growing queue within a step
or two.  Each step is judged on its realised arrivals: ``ok / sent``,
its p99 against a latency limit (a failed request counts as missing
the limit), and whether the client queue grew across it.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def poisson_offsets(rate: float, duration_s: float, rng: random.Random):
    """Seeded Poisson arrival offsets in ``[0, duration_s)``."""
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


class HttpConnection:
    """One keep-alive HTTP/1.1 connection (just enough for the front end)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def reopen(self) -> None:
        self.close()
        await self.open()

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        data = await self.reader.readexactly(length) if length else b""
        return status, data


async def http_get(host: str, port: int, path: str) -> Tuple[int, bytes]:
    """One-shot GET on a fresh connection."""
    conn = HttpConnection(host, port)
    await conn.open()
    try:
        return await conn.request("GET", path)
    finally:
        conn.close()


@dataclass
class Outcome:
    """One request of a window, timed from its scheduled arrival."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes = b""
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class Window:
    """Everything one open-loop window produced."""

    offered_rps: float
    duration_s: float
    sent: int
    start: float = 0.0
    outcomes: List[Outcome] = field(default_factory=list)
    lateness_s: List[float] = field(default_factory=list)
    depth: List[int] = field(default_factory=list)
    #: The caller's metadata per request index, and the first trace id.
    items: list = field(default_factory=list)
    rid_base: Optional[int] = None

    @property
    def ok(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.status == 200]

    def latencies_ms(self) -> List[float]:
        return [o.latency_s * 1000.0 for o in self.ok]


async def open_loop(
    host: str,
    port: int,
    connections: int,
    offsets: Sequence[float],
    bodies: Sequence[bytes],
    timeout_s: float = 10.0,
    drain_s: float = 15.0,
    offered_rps: float = 0.0,
    duration_s: float = 0.0,
    stop_before: Optional[Callable[[Window, int, int], bool]] = None,
) -> Window:
    """Send ``bodies[i]`` at ``offsets[i]`` over keep-alive connections.

    ``stop_before(window, i, depth)``, when given, is asked before
    arrival ``i`` is queued behind ``depth`` waiting requests;
    returning True ends the arrivals there.
    """
    queue: asyncio.Queue = asyncio.Queue()
    conns = [HttpConnection(host, port) for _ in range(connections)]
    await asyncio.gather(*(conn.open() for conn in conns))
    window = Window(offered_rps, duration_s, sent=0)

    async def worker(conn: HttpConnection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            sent = time.monotonic()
            try:
                status, data = await asyncio.wait_for(
                    conn.request("POST", "/api/route", bodies[index]),
                    timeout_s,
                )
                error = None
            except (
                asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError, ValueError, IndexError,
            ) as exc:
                status, data, error = 0, b"", f"{type(exc).__name__}: {exc}"
                await conn.reopen()
            window.outcomes.append(
                Outcome(index, due, sent, time.monotonic(), status, data, error)
            )

    tasks = [asyncio.create_task(worker(conn)) for conn in conns]
    start = window.start = time.monotonic() + 0.02
    try:
        for index, offset in enumerate(offsets):
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            depth = queue.qsize()
            if stop_before is not None and stop_before(window, index, depth):
                break
            window.lateness_s.append(max(0.0, time.monotonic() - due))
            window.depth.append(depth)
            queue.put_nowait((index, due))
            window.sent += 1
        for _ in conns:
            queue.put_nowait(None)
        done, pending = await asyncio.wait(tasks, timeout=drain_s)
        for task in pending:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for task in done:
            task.result()
    finally:
        for conn in conns:
            conn.close()
    return window


@dataclass
class Step:
    """One rate step of the max-rate staircase, judged on its arrivals."""

    rate: float
    sent: int
    ok: int
    p99_ms: float
    growth: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "rate": round(self.rate, 3), "sent": self.sent, "ok": self.ok,
            "p99_ms": round(self.p99_ms, 3) if math.isfinite(self.p99_ms)
            else None,
            "growth": self.growth, "passed": self.passed,
        }


def staircase_offsets(
    start_rps: float, growth: float, steps: int, min_step_s: float,
    min_arrivals: int,
) -> Tuple[List[float], List[int], List[float]]:
    """Evenly spaced arrivals whose rate rises by ``growth`` per step.

    Returns the offsets, the step of each arrival and the step rates.
    Each step lasts long enough for ``min_arrivals`` arrivals.
    """
    offsets: List[float] = []
    step_of: List[int] = []
    rates: List[float] = []
    t = 0.0
    for k in range(steps):
        rate = start_rps * growth ** k
        count = max(min_arrivals, round(rate * min_step_s))
        for i in range(count):
            offsets.append(t + i / rate)
            step_of.append(k)
        rates.append(rate)
        t += count / rate
    return offsets, step_of, rates


def judge_steps(
    window: Window, step_of: Sequence[int], rates: Sequence[float],
    limit_ms: float, slack: int,
) -> Tuple[float, List[Step]]:
    """Judge each step; the answer is the last rate before two failures.

    A step passes when ``ok / sent >= 0.99``, its p99 (failed requests
    count as infinitely slow) is under ``limit_ms``, and the client
    queue grew by at most ``slack`` requests across it.  One failing
    step followed by a passing one is a transient (a hiccup of the
    host), not the knee; two failing steps in a row are.
    """
    firsts: Dict[int, int] = {}
    for index in range(window.sent):
        firsts.setdefault(step_of[index], index)
    latencies: Dict[int, List[float]] = {}
    for outcome in window.outcomes:
        value = outcome.latency_s * 1000.0 if outcome.status == 200 \
            else math.inf
        latencies.setdefault(step_of[outcome.index], []).append(value)
    last = step_of[window.sent - 1] if window.sent else -1
    steps: List[Step] = []
    for k in range(last + 1):
        sent = sum(1 for i in range(window.sent) if step_of[i] == k)
        values = latencies.get(k, [])
        values += [math.inf] * (sent - len(values))
        ok = sum(1 for v in values if math.isfinite(v))
        p99 = quantile(values, 0.99) if values else math.inf
        end = firsts.get(k + 1)
        growth = (window.depth[end] - window.depth[firsts[k]]
                  if end is not None else 0)
        passed = (sent > 0 and ok / sent >= 0.99 and p99 < limit_ms
                  and growth <= slack and k < last)
        steps.append(Step(rates[k], sent, ok, p99, growth, passed))
    max_rps = 0.0
    for k, step in enumerate(steps):
        if not step.passed and (k + 1 == len(steps) or not steps[k + 1].passed):
            break
        if step.passed:
            max_rps = step.rate
    return max_rps, steps


def stop_at_knee(
    step_of: Sequence[int], limit_ms: float, slack: int,
) -> Callable[[Window, int, int], bool]:
    """``stop_before`` hook ending a staircase after two failed steps.

    Checked at each step boundary: a step fails when the queue grew by
    more than ``slack`` across it, or when more than 1 % of its
    requests took ``limit_ms`` or longer (judged one step later, once
    they have mostly completed).
    """
    firsts: List[int] = []
    failed: Dict[int, bool] = {}

    def stop(window: Window, index: int, depth: int) -> bool:
        if index and step_of[index] == step_of[index - 1]:
            return False
        firsts.append(index)
        k = len(firsts) - 1  # the step about to start
        if k >= 1:
            failed[k - 1] = depth - window.depth[firsts[k - 1]] > slack
        if k >= 2:
            lo, hi = firsts[k - 2], firsts[k - 1]
            slow = sum(1 for o in window.outcomes
                       if lo <= o.index < hi
                       and o.latency_s * 1000.0 >= limit_ms)
            failed[k - 2] = failed[k - 2] or slow > 0.01 * (hi - lo)
            return failed[k - 2] and failed[k - 1]
        return False

    return stop

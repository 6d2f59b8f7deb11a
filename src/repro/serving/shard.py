"""Per-city worker-process shards over zero-copy mmap snapshots.

The paper's study spans three independent city networks, which is a
natural shard key: one worker *process* per city gives each city its
own interpreter (and GIL), and each worker serves the unmodified
:class:`~repro.serving.service.RouteService` — same planners, cache,
breakers, shedding, live-traffic pipeline — so behaviour is
route-for-route identical to single-process serving (the differential
tier ``tests/serving/test_shard_differential.py`` pins fingerprint
equality for every registered planner in every city).

A worker serves the paper's four study approaches
(:data:`~repro.core.registry.PAPER_APPROACHES`) unless its
:class:`ShardSpec` names more: ``ShardSpec(planners=...)`` opts in any
other registered planner, and a planner that reads a contraction
hierarchy or landmark table (``ChViaNode``) gets it built then.  A
request naming an approach the worker does not serve is a
:class:`~repro.exceptions.QueryError` (HTTP 400).

Memory does not multiply with the worker count: when a shard is given
a version-3 snapshot path, the worker loads it via
:func:`~repro.graph.csr.map_snapshot`, so the CSR/ALT/CH arrays are
``memoryview`` casts over a read-only ``mmap`` and N processes mapping
the same file share one set of physical pages.

Process model
-------------
Workers are ``spawn``-ed (fork-safety: the parent holds threads), each
owning a request/reply :class:`multiprocessing.Queue` pair.  The
parent-side :class:`ShardHandle` tags every request with an id,
parks a future per id, and a dispatcher thread resolves futures as
replies arrive.  Payloads crossing the boundary are the JSON wire
shapes (a parsed :class:`~repro.serving.query.RouteRequest` in,
``RouteResponse.to_json()`` plus result fingerprints out) — never
pickled route sets, which would drag whole networks through the pipe.
A library error (:class:`~repro.exceptions.ReproError`) raised in the
worker crosses pickled, so the parent re-raises it as its own type
with its attributes (``retry_after_s``, ``city``, ...); anything else
arrives as a :class:`~repro.exceptions.QueryError` naming the type.

Failure is per-shard: a worker crash fails that shard's in-flight
requests with :class:`~repro.exceptions.ShardCrashedError`, marks the
shard degraded (visible on ``/healthz`` and as Prometheus gauges),
and respawns the worker with exponential backoff while requests for
*other* cities keep serving untouched.  Requests hitting a degraded
shard fail fast with :class:`~repro.exceptions.ShardUnavailableError`
carrying the respawn ETA as ``retry_after_s``.

:class:`ShardRouter` is the synchronous core — route by explicit city
or by geographic containment of the query's source coordinate —
and :class:`ShardFrontend` (:mod:`repro.serving.frontend`) puts an
asyncio HTTP face on it.  ``/metrics`` aggregation rebuilds each
worker's :class:`~repro.serving.metrics.MetricsRegistry` from its
shipped state and folds them with :meth:`MetricsRegistry.merge`, so
fleet-wide quantiles keep the sketch's rank-error guarantee.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.registry import (
    PAPER_APPROACHES,
    available_planners,
    make_planner,
)
from repro.exceptions import (
    ConfigurationError,
    QueryError,
    ReproError,
    ShardCrashedError,
    ShardError,
    ShardUnavailableError,
)
from repro.serving.metrics import MetricsRegistry
from repro.serving.query import RouteRequest

logger = logging.getLogger("repro.serving.shard")

#: Shard lifecycle states (``/healthz`` vocabulary).
SHARD_STARTING = "starting"
SHARD_READY = "ready"
SHARD_DEGRADED = "degraded"
SHARD_FAILED = "failed"
SHARD_STOPPED = "stopped"

_READY_ID = -1  # reply id of the worker's startup handshake


@dataclass(frozen=True)
class ShardSpec:
    """Configuration of one city shard.

    Give ``snapshot_path`` (a version-3 RPRN file) for the zero-copy
    mmap load; without it the worker builds the named synthetic city
    (``melbourne`` / ``dhaka`` / ``copenhagen``) at ``size``/``seed``.
    ``planners`` names the approaches the worker builds and serves; it
    defaults to the paper's four (:data:`PAPER_APPROACHES`), and any
    other registered planner is opted in by listing it, e.g.
    ``planners=available_planners()``.  The set must contain the four
    study approaches and name only registered planners, or the spec
    raises :class:`ConfigurationError` before any worker is spawned.
    ``live=True``
    attaches a per-shard
    :class:`~repro.serving.live.LiveTrafficController` so the parent
    can stream traffic batches into exactly one city.

    ``max_workers`` is ignored: the worker plans serially on its one
    serving thread.  The field stays so specs written against the
    former planner pool still construct.
    """

    city: str
    snapshot_path: Optional[str] = None
    size: str = "small"
    seed: int = 0
    planners: Tuple[str, ...] = PAPER_APPROACHES
    precompute_landmarks: int = 0
    precompute_ch: bool = False
    live: bool = False
    cache_size: int = 1024
    max_workers: Optional[int] = None
    timeout_s: float = 30.0
    breaker_threshold: Optional[int] = None
    max_inflight: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.city:
            raise ConfigurationError("shard city must be non-empty")
        missing = [
            name for name in PAPER_APPROACHES if name not in self.planners
        ]
        if missing:
            raise ConfigurationError(
                f"shard {self.city!r}: planners must include the study "
                f"approaches; missing {missing}"
            )
        registered = available_planners()
        unknown = [name for name in self.planners if name not in registered]
        if unknown:
            raise ConfigurationError(
                f"shard {self.city!r}: unknown planners {unknown}; "
                f"registered planners: {sorted(registered)}"
            )


# -- worker process ----------------------------------------------------------


def _build_worker_service(spec: ShardSpec):
    """Construct the in-worker RouteService (runs in the child)."""
    from repro.graph.csr import map_snapshot
    from repro.serving.live import LiveTrafficController
    from repro.serving.service import RouteService

    snapshot = None
    if spec.snapshot_path is not None:
        snapshot = map_snapshot(spec.snapshot_path)
        network = snapshot.network
    else:
        from repro.cities import copenhagen, dhaka, melbourne

        builders = {
            "melbourne": melbourne,
            "dhaka": dhaka,
            "copenhagen": copenhagen,
        }
        builder = builders.get(spec.city)
        if builder is None:
            raise ConfigurationError(
                f"no snapshot given and no builder for city {spec.city!r} "
                f"(know {sorted(builders)})"
            )
        network = builder(size=spec.size, seed=spec.seed)

    planners = {name: make_planner(name, network) for name in spec.planners}
    live = LiveTrafficController(network) if spec.live else None
    service = RouteService.from_network(
        network,
        planners=planners,
        cache_size=spec.cache_size,
        timeout_s=spec.timeout_s,
        precompute_landmarks=spec.precompute_landmarks,
        precompute_ch=spec.precompute_ch,
        live=live,
        **(
            {"breaker_threshold": spec.breaker_threshold}
            if spec.breaker_threshold is not None
            else {}
        ),
        **(
            {"max_inflight": spec.max_inflight}
            if spec.max_inflight is not None
            else {}
        ),
    )
    return service, network, snapshot


def _network_bbox(network) -> Tuple[float, float, float, float]:
    lats = [node.lat for node in network.nodes()]
    lons = [node.lon for node in network.nodes()]
    return (min(lats), min(lons), max(lats), max(lons))


def _worker_main(spec: ShardSpec, requests, replies) -> None:
    """Entry point of one shard worker process."""
    try:
        service, network, snapshot = _build_worker_service(spec)
    except Exception as exc:  # startup failures surface on the handshake
        replies.put(
            (
                _READY_ID,
                "error",
                {"type": type(exc).__name__, "message": str(exc)},
            )
        )
        return

    from repro.traffic.stream import TrafficUpdateBatch

    replies.put(
        (
            _READY_ID,
            "ok",
            {
                "pid": os.getpid(),
                "city": spec.city,
                "bbox": _network_bbox(network),
                "num_nodes": network.num_nodes,
                "num_edges": network.num_edges,
                "mapped": snapshot is not None,
                "planners": sorted(service.processor.planners),
            },
        )
    )

    while True:
        req_id, op, payload = requests.get()
        if op == "stop":
            replies.put((req_id, "ok", {}))
            service.close()
            return
        try:
            if op == "route":
                out = service.answer(payload)
            elif op == "ingest":
                if service.live is None:
                    raise ConfigurationError(
                        f"shard {spec.city!r} was started without "
                        f"live=True; it cannot ingest traffic"
                    )
                outcome = service.live.ingest(
                    TrafficUpdateBatch.from_json(payload)
                )
                out = {
                    "seq": outcome.seq,
                    "status": outcome.status,
                    "epoch_id": outcome.epoch_id,
                    "reason": outcome.reason,
                    "dirty_edges": outcome.dirty_edges,
                }
            elif op == "metrics":
                out = {
                    "state": service.metrics.to_state(),
                    "payload": service.metrics_payload(),
                }
            elif op == "health":
                out = {
                    "open_circuits": service.open_circuits(),
                    "epoch": service.active_epoch_id(),
                }
            elif op == "sleep":
                # Fault-injection aid: park the worker loop so tests
                # can SIGKILL it deterministically mid-request.
                time.sleep(float(payload))
                out = {"slept_s": float(payload)}
            else:
                raise ConfigurationError(f"unknown shard op {op!r}")
            replies.put((req_id, "ok", out))
        except Exception as exc:
            replies.put((req_id, "error", _encode_error(exc)))


def _encode_error(exc: Exception):
    """A worker-side exception as it crosses the pipe.

    Library errors travel pickled, here rather than in the queue's
    feeder thread, so one that cannot be pickled still gets a reply:
    it falls back, like any other exception, to a ``{type, message}``
    envelope.
    """
    if isinstance(exc, ReproError):
        try:
            return pickle.dumps(exc)
        except (pickle.PicklingError, TypeError, AttributeError) as failure:
            logger.warning("sending %r as an envelope: %s", exc, failure)
    return {"type": type(exc).__name__, "message": str(exc)}


def _rebuild_error(city: str, payload) -> Exception:
    """The parent-side exception for a worker's error reply."""
    if isinstance(payload, bytes):
        try:
            return pickle.loads(payload)
        except Exception as exc:
            return QueryError(f"shard {city!r}: unreadable error: {exc}")
    return QueryError(
        f"shard {city!r}: {payload['type']}: {payload['message']}"
    )


# -- parent side -------------------------------------------------------------


class ShardHandle:
    """Parent-side lifecycle + request pipe of one city shard.

    Owns the worker process, its queue pair, the dispatcher thread
    resolving reply futures, and the crash/respawn state machine.  All
    public methods are thread-safe.
    """

    def __init__(
        self,
        spec: ShardSpec,
        *,
        context=None,
        request_timeout_s: float = 60.0,
        max_restarts: int = 8,
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.spec = spec
        self.city = spec.city
        self.request_timeout_s = request_timeout_s
        self.max_restarts = max_restarts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._clock = clock
        self._sleep = sleep
        self._context = context or multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: Dict[int, Future] = {}
        self._state = SHARD_STARTING
        self._proc = None
        self._requests = None
        self._replies = None
        self._ready_info: Dict = {}
        self._ready_event = threading.Event()
        self._startup_error: Optional[str] = None
        self._generation = 0
        self._closing = False
        # Degradation bookkeeping surfaced on /healthz + Prometheus.
        self.restarts_total = 0
        self.crashes_total = 0
        self._consecutive_crashes = 0
        self._degraded_since: Optional[float] = None
        self.degraded_seconds_total = 0.0
        self.last_degraded_window_s = 0.0
        self._retry_at: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    def spawn(self) -> None:
        """Launch the worker process (non-blocking)."""
        with self._lock:
            if self._closing:
                raise ShardUnavailableError(self.city, "shard is closing")
            self._spawn_locked()

    def _spawn_locked(self) -> None:
        self._generation += 1
        generation = self._generation
        self._requests = self._context.Queue()
        self._replies = self._context.Queue()
        self._ready_event.clear()
        self._startup_error = None
        self._proc = self._context.Process(
            target=_worker_main,
            args=(self.spec, self._requests, self._replies),
            name=f"shard-{self.city}-{generation}",
            daemon=True,
        )
        self._proc.start()
        dispatcher = threading.Thread(
            target=self._dispatch_loop,
            args=(generation, self._proc, self._replies),
            name=f"shard-{self.city}-dispatch-{generation}",
            daemon=True,
        )
        dispatcher.start()

    def await_ready(self, timeout_s: float = 120.0) -> Dict:
        """Block until the worker's startup handshake (or raise)."""
        if not self._ready_event.wait(timeout_s):
            raise ShardUnavailableError(
                self.city, f"worker not ready within {timeout_s:.0f}s"
            )
        if self._startup_error is not None:
            raise ShardUnavailableError(
                self.city, f"worker failed to start: {self._startup_error}"
            )
        return dict(self._ready_info)

    def close(self) -> None:
        """Stop the worker (idempotent; never raises)."""
        with self._lock:
            self._closing = True
            self._state = SHARD_STOPPED
            proc, requests = self._proc, self._requests
        if proc is None:
            return
        try:
            if proc.is_alive():
                requests.put((next(self._ids), "stop", None))
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        except (OSError, ValueError):  # queue already torn down
            if proc.is_alive():  # pragma: no cover - teardown race
                proc.kill()

    # -- dispatch -----------------------------------------------------------

    def _dispatch_loop(self, generation: int, proc, replies) -> None:
        """Resolve reply futures; detect worker death; respawn."""
        import queue as queue_module

        while True:
            with self._lock:
                if self._closing or generation != self._generation:
                    return
            try:
                req_id, status, payload = replies.get(timeout=0.1)
            except queue_module.Empty:
                if not proc.is_alive():
                    self._on_crash(generation, proc)
                    return
                continue
            except (OSError, EOFError, ValueError):  # queue torn down
                return
            if req_id == _READY_ID:
                if status == "ok":
                    with self._lock:
                        self._ready_info = payload
                        self._state = SHARD_READY
                        self._consecutive_crashes = 0
                        self._retry_at = None
                        if self._degraded_since is not None:
                            window = self._clock() - self._degraded_since
                            self.degraded_seconds_total += window
                            self.last_degraded_window_s = window
                            self._degraded_since = None
                    logger.info(
                        "shard %s ready (pid=%s, mapped=%s)",
                        self.city, payload.get("pid"), payload.get("mapped"),
                    )
                else:
                    self._startup_error = payload.get("message", "unknown")
                    with self._lock:
                        self._state = SHARD_FAILED
                    logger.error(
                        "shard %s failed to start: %s",
                        self.city, self._startup_error,
                    )
                self._ready_event.set()
                continue
            with self._lock:
                future = self._pending.pop(req_id, None)
            if future is None:
                continue  # requester gave up (timeout) before the reply
            if status == "ok":
                future.set_result(payload)
            else:
                future.set_exception(_rebuild_error(self.city, payload))

    def _on_crash(self, generation: int, proc) -> None:
        """Worker died: fail in-flight requests, go degraded, respawn."""
        now = self._clock()
        with self._lock:
            if self._closing or generation != self._generation:
                return
            self.crashes_total += 1
            self._consecutive_crashes += 1
            if self._degraded_since is None:
                self._degraded_since = now
            pending = list(self._pending.values())
            self._pending.clear()
            exhausted = self._consecutive_crashes > self.max_restarts
            self._state = SHARD_FAILED if exhausted else SHARD_DEGRADED
            delay = min(
                self.backoff_cap_s,
                self.backoff_base_s * 2 ** (self._consecutive_crashes - 1),
            )
            self._retry_at = None if exhausted else now + delay
        crash = ShardCrashedError(
            self.city,
            f"worker (pid {proc.pid}, exit code {proc.exitcode}) died "
            f"with the request in flight",
        )
        for future in pending:
            future.set_exception(crash)
        logger.warning(
            "shard %s worker died (exit=%s, crash #%d); %s",
            self.city, proc.exitcode, self._consecutive_crashes,
            "giving up" if exhausted
            else f"respawning in {delay:.2f}s",
        )
        if exhausted:
            return
        self._sleep(delay)
        with self._lock:
            if self._closing or generation != self._generation:
                return
            self.restarts_total += 1
            self._spawn_locked()

    # -- requests -----------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def pid(self) -> Optional[int]:
        proc = self._proc
        return proc.pid if proc is not None else None

    @property
    def bbox(self) -> Optional[Tuple[float, float, float, float]]:
        bbox = self._ready_info.get("bbox")
        return tuple(bbox) if bbox is not None else None

    def submit(self, op: str, payload=None) -> Future:
        """Enqueue one request; the future resolves off-thread."""
        with self._lock:
            if self._state != SHARD_READY:
                retry_after = 0.0
                if self._retry_at is not None:
                    retry_after = max(0.0, self._retry_at - self._clock())
                raise ShardUnavailableError(
                    self.city,
                    f"shard is {self._state}",
                    retry_after_s=retry_after,
                )
            req_id = next(self._ids)
            future: Future = Future()
            self._pending[req_id] = future
            requests = self._requests
        requests.put((req_id, op, payload))
        return future

    def request(self, op: str, payload=None, timeout_s=None):
        """Enqueue and wait; raises the typed shard/worker error."""
        future = self.submit(op, payload)
        try:
            return future.result(
                timeout_s if timeout_s is not None else self.request_timeout_s
            )
        except FutureTimeoutError:
            raise ShardError(
                self.city,
                f"request {op!r} timed out after "
                f"{timeout_s or self.request_timeout_s:.1f}s",
            ) from None

    def health_payload(self) -> Dict:
        """Per-shard block of the ``/healthz`` response."""
        with self._lock:
            degraded_s = self.degraded_seconds_total
            if self._degraded_since is not None:
                degraded_s += self._clock() - self._degraded_since
            return {
                "state": self._state,
                "pid": self.pid,
                "mapped": bool(self._ready_info.get("mapped")),
                "crashes_total": self.crashes_total,
                "restarts_total": self.restarts_total,
                "degraded_seconds_total": round(degraded_s, 3),
                "last_degraded_window_s": round(
                    self.last_degraded_window_s, 3
                ),
                "retry_after_s": (
                    round(max(0.0, self._retry_at - self._clock()), 3)
                    if self._retry_at is not None
                    else None
                ),
            }


class ShardRouter:
    """Routes requests across per-city shard workers (sync core).

    ``start()`` spawns every shard in parallel and waits for all
    handshakes; per-request entry points are :meth:`route` (by
    explicit city or source-coordinate containment), :meth:`ingest`
    (live traffic into one shard), and the fleet-wide aggregations
    :meth:`metrics_payload` / :meth:`healthz_payload` /
    :meth:`prometheus_payload`.  The asyncio front end
    (:class:`repro.serving.frontend.ShardFrontend`) serves these over
    HTTP; tests and the load generator drive them directly.
    """

    def __init__(
        self,
        specs,
        *,
        request_timeout_s: float = 60.0,
        ready_timeout_s: float = 300.0,
        max_restarts: int = 8,
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 30.0,
        context=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        specs = list(specs)
        if not specs:
            raise ConfigurationError("at least one shard spec is required")
        cities = [spec.city for spec in specs]
        if len(set(cities)) != len(cities):
            raise ConfigurationError(
                f"duplicate shard cities in {cities!r}"
            )
        self.ready_timeout_s = ready_timeout_s
        context = context or multiprocessing.get_context("spawn")
        self._handles: Dict[str, ShardHandle] = {
            spec.city: ShardHandle(
                spec,
                context=context,
                request_timeout_s=request_timeout_s,
                max_restarts=max_restarts,
                backoff_base_s=backoff_base_s,
                backoff_cap_s=backoff_cap_s,
                clock=clock,
                sleep=sleep,
            )
            for spec in specs
        }
        self._started = False
        # Parent-side counters (the front end's http.bad_request),
        # folded into the fleet metrics.
        self._local_metrics = MetricsRegistry()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ShardRouter":
        """Spawn all workers, then block until every handshake lands.

        If any shard fails to start (or the wait is interrupted), the
        workers already spawned are stopped before the error propagates,
        so ``with ShardRouter(...)`` never leaks processes.
        """
        if self._started:
            return self
        try:
            for handle in self._handles.values():
                handle.spawn()
            for handle in self._handles.values():
                handle.await_ready(self.ready_timeout_s)
        except BaseException:
            self.close()
            raise
        self._started = True
        return self

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing ------------------------------------------------------------

    @property
    def cities(self) -> List[str]:
        return sorted(self._handles)

    def handle(self, city: str) -> ShardHandle:
        handle = self._handles.get(city)
        if handle is None:
            raise ShardUnavailableError(
                city, f"no shard configured (have {self.cities})"
            )
        return handle

    def resolve_city(self, source_lat: float, source_lon: float) -> str:
        """The shard whose network bbox contains the source coordinate."""
        for city, handle in sorted(self._handles.items()):
            bbox = handle.bbox
            if bbox is None:
                continue
            min_lat, min_lon, max_lat, max_lon = bbox
            if min_lat <= source_lat <= max_lat and \
                    min_lon <= source_lon <= max_lon:
                return city
        raise ShardUnavailableError(
            "unrouted",
            f"no shard covers coordinate "
            f"({source_lat:.4f}, {source_lon:.4f})",
        )

    def route(
        self,
        request,
        city: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict:
        """Serve one route request on its city shard.

        ``request`` is a :class:`~repro.serving.query.RouteRequest` or
        its JSON body, which is parsed here, once, before routing (a
        malformed body raises :class:`QueryError`).  Returns ``{"city",
        "response", "fingerprints", "epoch"}`` where ``response`` is the
        worker's ``RouteResponse.to_json()`` payload.
        """
        if not isinstance(request, RouteRequest):
            request = RouteRequest.from_json(request)
        if city is None:
            city = self.resolve_city(request.source_lat, request.source_lon)
        out = self.handle(city).request("route", request, timeout_s)
        out["city"] = city
        return out

    def ingest(self, city: str, batch, timeout_s=None) -> Dict:
        """Stream one traffic batch into one live shard."""
        line = batch if isinstance(batch, str) else batch.to_json()
        return self.handle(city).request("ingest", line, timeout_s)

    def kill_worker(self, city: str, sig: int = 9) -> int:
        """Fault injection: signal the shard's worker process."""
        pid = self.handle(city).pid
        if pid is None:
            raise ShardUnavailableError(city, "no worker process")
        os.kill(pid, sig)
        return pid

    # -- aggregation --------------------------------------------------------

    def _poll_ready(self, op: str) -> Dict[str, Dict]:
        """Run ``op`` on every *ready* shard; skip degraded ones."""
        futures: Dict[str, Future] = {}
        for city, handle in sorted(self._handles.items()):
            try:
                futures[city] = handle.submit(op)
            except ShardUnavailableError:
                continue
        out: Dict[str, Dict] = {}
        for city, future in futures.items():
            try:
                out[city] = future.result(
                    self._handles[city].request_timeout_s
                )
            except Exception:  # a crash mid-poll just drops that shard
                continue
        return out

    def metrics_payload(self) -> Dict:
        """Fleet metrics: per-worker registries folded via ``merge``.

        The merged ``counters``/``histograms`` block has exactly the
        shape of a single service's ``/metrics`` payload — quantiles
        cover the union stream — plus a ``shards`` block with each
        shard's serving state and its worker's full local payload.
        """
        merged = MetricsRegistry().merge(self._local_metrics)
        shards: Dict[str, Dict] = {}
        polled = self._poll_ready("metrics")
        for city, handle in sorted(self._handles.items()):
            block = dict(handle.health_payload())
            reply = polled.get(city)
            if reply is not None:
                merged.merge(MetricsRegistry.from_state(reply["state"]))
                block["local"] = reply["payload"]
            shards[city] = block
        payload = merged.snapshot()
        payload["shards"] = shards
        return payload

    def count_bad_request(self) -> None:
        """Count a request the front end rejected with 400."""
        self._local_metrics.inc("http.bad_request")

    def healthz_payload(self) -> Dict:
        """Fleet health: degraded if any shard is not ready."""
        shards = {
            city: handle.health_payload()
            for city, handle in sorted(self._handles.items())
        }
        degraded = sorted(
            city for city, block in shards.items()
            if block["state"] != SHARD_READY
        )
        return {
            "status": "ok" if not degraded else "degraded",
            "degraded_shards": degraded,
            "shards": shards,
        }

    def prometheus_payload(self) -> str:
        """Prometheus text: merged metrics + per-shard gauges."""
        from repro.observability.prometheus import render_prometheus

        return render_prometheus(self.metrics_payload())

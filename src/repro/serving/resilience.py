"""Resilience primitives for the serving layer.

Three mechanisms keep the route service answering under partial
failure, plus a fault injector to prove they work:

* **Cooperative deadlines** — re-exported from
  :mod:`repro.cancellation` (the primitive lives below the planners so
  their hot loops can import it without a layering cycle).  The service
  arms one :class:`Deadline` per query; planners check it and raise
  :class:`~repro.exceptions.PlanningTimeout`, and approaches whose turn
  comes after it expired are not started.
* **Circuit breakers** (:class:`CircuitBreaker`) — one per approach.
  ``closed`` counts consecutive failures; after ``failure_threshold``
  of them the circuit ``open``s and calls fast-fail without touching
  the planner; after ``cooldown_s`` one probe is let through
  (``half_open``) and its outcome closes or re-opens the circuit.
* **Admission control** (:class:`InflightGate`) — a bounded in-flight
  counter that sheds excess load with
  :class:`~repro.exceptions.ServiceOverloadedError` *before* queueing
  it (shed-before-queue: a queued query would time out anyway, so
  rejecting early preserves capacity for queries that can still win).
* **Fault injection** (:class:`FaultInjectingPlanner`) — a seeded
  wrapper that makes any planner raise, hang past the deadline, return
  empty sets, or add latency with configured probabilities; the chaos
  benchmark (``benchmarks/bench_chaos.py``) drives it to measure how
  availability degrades with and without the mechanisms above.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.cancellation import (
    DEADLINE_CHECK_MASK,
    Deadline,
    active_deadline,
    deadline_scope,
)
from repro.core.base import AlternativeRoutePlanner, RouteSet
from repro.exceptions import (
    ConfigurationError,
    ServiceOverloadedError,
)

__all__ = [
    "CIRCUIT_CLOSED",
    "CIRCUIT_HALF_OPEN",
    "CIRCUIT_OPEN",
    "CircuitBreaker",
    "DEADLINE_CHECK_MASK",
    "Deadline",
    "FaultInjectingPlanner",
    "InflightGate",
    "active_deadline",
    "deadline_scope",
    "interruptible_sleep",
]

#: Circuit breaker states.
CIRCUIT_CLOSED = "closed"
CIRCUIT_OPEN = "open"
CIRCUIT_HALF_OPEN = "half_open"

#: Numeric encoding for the Prometheus ``repro_circuit_state`` gauge.
CIRCUIT_STATE_CODES = {
    CIRCUIT_CLOSED: 0,
    CIRCUIT_HALF_OPEN: 1,
    CIRCUIT_OPEN: 2,
}


class CircuitBreaker:
    """Per-approach circuit breaker: closed -> open -> half-open.

    Thread-safe; the serving layer calls :meth:`allow` before invoking
    an approach's planner and :meth:`record_success` /
    :meth:`record_failure` with the outcome.

    Parameters
    ----------
    name:
        The protected approach, for logs and payloads.
    failure_threshold:
        Consecutive failures that trip the circuit open.
    cooldown_s:
        Seconds an open circuit waits before letting one probe through.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 5,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s <= 0:
            raise ConfigurationError(
                f"cooldown_s must be > 0, got {cooldown_s}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CIRCUIT_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._opened_total = 0
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        """Current state; reading may promote ``open`` to ``half_open``."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        """Lock held: promote an open circuit whose cooldown elapsed."""
        if (
            self._state == CIRCUIT_OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = CIRCUIT_HALF_OPEN
            self._probe_in_flight = False

    def allow(self) -> bool:
        """True when a call may proceed (closed, or the half-open probe)."""
        with self._lock:
            self._maybe_half_open()
            if self._state == CIRCUIT_CLOSED:
                return True
            if self._state == CIRCUIT_HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        """A call succeeded; half-open recovers, closed resets its count."""
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            self._state = CIRCUIT_CLOSED

    def record_failure(self) -> bool:
        """A call failed; returns True when this failure opened the circuit."""
        with self._lock:
            if self._state == CIRCUIT_HALF_OPEN:
                # The probe failed: straight back to open, fresh cooldown.
                self._state = CIRCUIT_OPEN
                self._opened_at = self._clock()
                self._opened_total += 1
                self._probe_in_flight = False
                return True
            self._consecutive_failures += 1
            if (
                self._state == CIRCUIT_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = CIRCUIT_OPEN
                self._opened_at = self._clock()
                self._opened_total += 1
                return True
            return False

    def retry_in_s(self) -> float:
        """Seconds until an open circuit will admit its probe (0 otherwise)."""
        with self._lock:
            if self._state != CIRCUIT_OPEN:
                return 0.0
            return max(
                0.0, self.cooldown_s - (self._clock() - self._opened_at)
            )

    def snapshot(self) -> Dict:
        """JSON-ready state for ``/metrics`` and ``/healthz``."""
        state = self.state  # promotes open -> half_open if due
        with self._lock:
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "opened_total": self._opened_total,
                "retry_in_s": round(
                    max(
                        0.0,
                        self.cooldown_s - (self._clock() - self._opened_at),
                    )
                    if state == CIRCUIT_OPEN
                    else 0.0,
                    3,
                ),
            }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state!r}, "
            f"failures={self._consecutive_failures})"
        )


class InflightGate:
    """Bounded in-flight admission gate with shed-before-queue semantics.

    :meth:`acquire` never blocks: when the gate is full the query is
    rejected immediately with
    :class:`~repro.exceptions.ServiceOverloadedError` so the caller can
    return HTTP 503 + ``Retry-After`` while admitted queries keep their
    planner capacity.

    ``limit=None`` disables shedding but still counts in-flight queries
    for the metrics payload.
    """

    def __init__(
        self, limit: Optional[int] = None, retry_after_s: float = 1.0
    ) -> None:
        if limit is not None and limit < 1:
            raise ConfigurationError(
                f"in-flight limit must be >= 1 or None, got {limit}"
            )
        if retry_after_s <= 0:
            raise ConfigurationError(
                f"retry_after_s must be > 0, got {retry_after_s}"
            )
        self.limit = limit
        self.retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._in_flight = 0
        self._shed_total = 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def shed_total(self) -> int:
        return self._shed_total

    def acquire(self) -> None:
        """Admit one query or raise :class:`ServiceOverloadedError`."""
        with self._lock:
            if self.limit is not None and self._in_flight >= self.limit:
                self._shed_total += 1
                raise ServiceOverloadedError(
                    in_flight=self._in_flight,
                    limit=self.limit,
                    retry_after_s=self.retry_after_s,
                )
            self._in_flight += 1

    def release(self) -> None:
        """Mark one admitted query finished."""
        with self._lock:
            if self._in_flight <= 0:
                raise ConfigurationError(
                    "release() without a matching acquire()"
                )
            self._in_flight -= 1

    def __enter__(self) -> "InflightGate":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def snapshot(self) -> Dict:
        """JSON-ready admission stats for ``/metrics``."""
        with self._lock:
            return {
                "in_flight": self._in_flight,
                "limit": self.limit,
                "shed_total": self._shed_total,
            }

    def __repr__(self) -> str:
        return (
            f"InflightGate(in_flight={self._in_flight}, "
            f"limit={self.limit})"
        )


def interruptible_sleep(duration_s: float, tick_s: float = 0.02) -> None:
    """Sleep that honours the ambient deadline.

    Sleeps in ``tick_s`` slices, checking the ambient
    :class:`Deadline` between slices — the well-behaved way for slow
    code to wait, and what makes an injected "hang" cancellable under
    the resilience layer while genuinely blocking without it.
    """
    deadline = active_deadline()
    end = time.monotonic() + duration_s
    while True:
        if deadline is not None:
            deadline.check()
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(tick_s, remaining))


class FaultInjectingPlanner(AlternativeRoutePlanner):
    """Seeded chaos wrapper around any planner.

    Each :meth:`plan` call rolls one uniform variate and injects at
    most one fault, by cumulative probability: raise ``p_error``, hang
    for ``hang_s`` with ``p_hang``, return an empty route set with
    ``p_empty``; otherwise delegate to the wrapped planner (after an
    optional fixed ``extra_latency_s``).  The hang sleeps through
    :func:`interruptible_sleep`, so under a deadline it raises
    :class:`~repro.exceptions.PlanningTimeout` promptly, while without
    one it genuinely blocks its caller.

    The wrapper is deterministic per seed and keeps its own injection
    counters (``injected``) so experiments can report what was thrown
    at the service.
    """

    def __init__(
        self,
        inner: AlternativeRoutePlanner,
        seed: int = 0,
        p_error: float = 0.0,
        p_hang: float = 0.0,
        p_empty: float = 0.0,
        extra_latency_s: float = 0.0,
        hang_s: float = 30.0,
    ) -> None:
        import random

        for label, p in (
            ("p_error", p_error), ("p_hang", p_hang), ("p_empty", p_empty)
        ):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"{label} must be in [0, 1], got {p}"
                )
        if p_error + p_hang + p_empty > 1.0 + 1e-9:
            raise ConfigurationError(
                "fault probabilities must sum to at most 1"
            )
        if extra_latency_s < 0 or hang_s <= 0:
            raise ConfigurationError(
                "extra_latency_s must be >= 0 and hang_s > 0"
            )
        super().__init__(inner.network, inner.k)
        self.name = inner.name
        self.inner = inner
        self.p_error = p_error
        self.p_hang = p_hang
        self.p_empty = p_empty
        self.extra_latency_s = extra_latency_s
        self.hang_s = hang_s
        self._rng = random.Random(f"fault:{inner.name}:{seed}")
        self.injected: Dict[str, int] = {
            "error": 0, "hang": 0, "empty": 0, "clean": 0,
        }

    def _plan_routes(self, source: int, target: int):
        roll = self._rng.random()
        if roll < self.p_error:
            self.injected["error"] += 1
            raise RuntimeError(
                f"injected fault: {self.name} planner error"
            )
        if roll < self.p_error + self.p_hang:
            self.injected["hang"] += 1
            interruptible_sleep(self.hang_s)
            # Without a deadline the hang eventually "recovers" and the
            # (very late) result is still produced, like a stuck RPC
            # finally returning.
            return list(self.inner.plan(source, target).routes)
        if roll < self.p_error + self.p_hang + self.p_empty:
            self.injected["empty"] += 1
            return []
        self.injected["clean"] += 1
        if self.extra_latency_s:
            interruptible_sleep(self.extra_latency_s)
        return list(self.inner.plan(source, target).routes)

    def plan(
        self, source: int, target: int, k: Optional[int] = None, **kwargs
    ) -> RouteSet:
        # Delegate through the base class for validation/tracing, but
        # keep the wrapped planner's configured k semantics (kwargs
        # carry the base signature's context/backend overrides).
        return super().plan(source, target, k=k, **kwargs)

    def __repr__(self) -> str:
        return (
            f"FaultInjectingPlanner({self.inner!r}, "
            f"p_error={self.p_error}, p_hang={self.p_hang}, "
            f"p_empty={self.p_empty})"
        )

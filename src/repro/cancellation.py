"""Cooperative cancellation: ``contextvars``-propagated deadlines.

CPython cannot *pre-emptively* stop a running planner, so a query
timeout is cooperative: the serving layer arms one :class:`Deadline`
per query in the ambient context (the same ``contextvars`` backbone the
tracer uses), and every planner's search loop periodically calls
:meth:`Deadline.check`, which raises
:class:`~repro.exceptions.PlanningTimeout` once the deadline expires —
unwinding the search so the query can answer with what it has.

This module sits *below* :mod:`repro.core` and :mod:`repro.algorithms`
on purpose: the planners' hot loops import from here, and the serving
layer re-exports the same names from :mod:`repro.serving.resilience`.

Usage, planner side (the only code that belongs in a hot loop)::

    deadline = active_deadline()          # once, before the loop
    while heap:
        if deadline is not None and not (expanded & DEADLINE_CHECK_MASK):
            deadline.check()              # raises PlanningTimeout
        ...

Usage, caller side::

    with deadline_scope(timeout_s=2.0):
        planner.plan(s, t)                # may raise PlanningTimeout
"""

from __future__ import annotations

import contextvars
import math
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.exceptions import ConfigurationError, PlanningTimeout

#: Stride mask for hot-loop checks: ``iteration & DEADLINE_CHECK_MASK``
#: is zero once every 1024 iterations, keeping the clock read off the
#: per-edge fast path while still bounding overshoot to a sliver of
#: search work.
DEADLINE_CHECK_MASK = 0x3FF

#: The ambient deadline; ``None`` means nobody is waiting with a clock.
_DEADLINE: contextvars.ContextVar[Optional["Deadline"]] = (
    contextvars.ContextVar("repro_deadline", default=None)
)


class Deadline:
    """A point in (monotonic) time after which planners must give up.

    Also usable as a pure cancellation token: :meth:`cancel` trips it
    immediately regardless of the clock, and a deadline built with
    ``timeout_s=None`` never expires on its own.
    """

    __slots__ = ("timeout_s", "_expires_at", "_cancelled")

    def __init__(self, timeout_s: Optional[float] = None) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError(
                f"deadline timeout must be > 0, got {timeout_s}"
            )
        self.timeout_s = timeout_s
        self._expires_at = (
            math.inf if timeout_s is None
            else time.monotonic() + timeout_s
        )
        self._cancelled = False

    @classmethod
    def after(cls, timeout_s: float) -> "Deadline":
        """A deadline expiring ``timeout_s`` seconds from now."""
        return cls(timeout_s)

    def cancel(self) -> None:
        """Trip the deadline now; every later :meth:`check` raises."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def expired(self) -> bool:
        """True once cancelled or past the expiry time."""
        return self._cancelled or time.monotonic() >= self._expires_at

    def remaining(self) -> float:
        """Seconds left (may be negative; ``inf`` for no-timeout)."""
        if self._cancelled:
            return 0.0
        if self._expires_at is math.inf:
            return math.inf
        return self._expires_at - time.monotonic()

    def check(self) -> None:
        """Raise :class:`PlanningTimeout` when expired; else return."""
        if self.expired:
            if self._cancelled:
                raise PlanningTimeout("planning was cancelled")
            raise PlanningTimeout(
                f"planning exceeded its {self.timeout_s:g}s deadline"
            )

    def __repr__(self) -> str:
        return (
            f"Deadline(timeout_s={self.timeout_s}, "
            f"remaining={self.remaining():.3f}, "
            f"cancelled={self._cancelled})"
        )


def active_deadline() -> Optional[Deadline]:
    """The ambient deadline of this context, or None when unbounded.

    Planners read this once per :meth:`plan` call; outside the serving
    layer (unit tests, scripts, benchmarks without a scope) it is None
    and the loops pay nothing beyond one ``is not None`` per stride.
    """
    return _DEADLINE.get()


@contextmanager
def deadline_scope(
    deadline: Optional[Deadline] = None,
    timeout_s: Optional[float] = None,
) -> Iterator[Deadline]:
    """Arm a deadline for the ``with`` block.

    Pass either an existing :class:`Deadline` (the service shares one
    per query across all its planners) or a ``timeout_s`` to build a
    fresh one.  Nested scopes shadow outer ones for the block.
    """
    if deadline is None:
        deadline = Deadline(timeout_s)
    elif timeout_s is not None:
        raise ConfigurationError(
            "pass either a Deadline or timeout_s, not both"
        )
    token = _DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _DEADLINE.reset(token)

"""Request tracing: spans, traces and ``contextvars`` propagation.

One served query is one *trace*: a tree of timed *spans*, one per
pipeline stage — vertex snapping, cache lookup, one planner invocation
per approach, the stretch/empty filter, rendering.  The paper's Table 2
runtime gaps come from search effort; a trace makes that effort visible
per query instead of only in aggregate histograms.

The ambient current span lives in a :class:`contextvars.ContextVar`, so
propagation is automatic through ordinary calls: the
:class:`~repro.serving.service.RouteService` plans every approach on the
query's own thread, so each planner's span attaches to the query's
trace.  Code that moves work to another thread carries the trace along
by running it in ``contextvars.copy_context()``.

Finished traces land in a bounded ring buffer on the :class:`Tracer`;
the demo webapp serves it at ``GET /trace`` and
``repro demo --dump-traces`` prints it on shutdown.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional

from repro.exceptions import ConfigurationError

#: Finished traces retained by a :class:`Tracer`.
DEFAULT_BUFFER_SIZE = 256

#: The ambient span; ``None`` means no trace is active in this context.
_CURRENT_SPAN: contextvars.ContextVar[Optional["Span"]] = (
    contextvars.ContextVar("repro_current_span", default=None)
)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed stage within a trace.

    Spans are created through :meth:`Tracer.trace` (roots) and
    :func:`span` (children); they should not be constructed directly.
    ``duration_s`` stays ``None`` until :meth:`end` runs, so a span that
    outlives its trace (one still running on another thread when the
    trace ends) shows up as unfinished rather than with a fake duration.
    """

    __slots__ = (
        "trace",
        "span_id",
        "parent_id",
        "name",
        "started_at",
        "duration_s",
        "error",
        "attributes",
        "_start_pc",
    )

    def __init__(
        self,
        trace: "Trace",
        name: str,
        parent_id: Optional[str],
        attributes: Optional[Dict] = None,
    ) -> None:
        self.trace = trace
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.name = name
        self.started_at = time.time()
        self.duration_s: Optional[float] = None
        self.error: Optional[str] = None
        self.attributes: Dict = dict(attributes or {})
        self._start_pc = time.perf_counter()

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    @property
    def ended(self) -> bool:
        return self.duration_s is not None

    def set_attribute(self, key: str, value) -> None:
        """Attach one key/value to the span (JSON-serialisable values)."""
        self.attributes[key] = value

    def record_error(self, error: BaseException | str) -> None:
        """Mark the span failed; the trace survives the failure."""
        if isinstance(error, BaseException):
            self.error = f"{type(error).__name__}: {error}"
        else:
            self.error = str(error)

    def end(self) -> None:
        """Close the span (idempotent; first call wins the duration)."""
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._start_pc

    def to_payload(self) -> Dict:
        """JSON-ready form for ``GET /trace``."""
        payload: Dict = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_at": round(self.started_at, 6),
            "duration_s": (
                round(self.duration_s, 6)
                if self.duration_s is not None
                else None
            ),
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"ended={self.ended})"
        )


class _NullSpan:
    """No-op span used when no trace is active; safe to attribute."""

    trace_id = None
    span_id = None
    parent_id = None
    name = ""
    error = None
    ended = False

    def set_attribute(self, key: str, value) -> None:
        pass

    def record_error(self, error) -> None:
        pass

    def end(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullSpan()"


NULL_SPAN = _NullSpan()


class Trace:
    """One query's span tree; thread-safe, since work the query hands to
    other threads may append spans while the query adds its own."""

    def __init__(self, name: str) -> None:
        self.trace_id = _new_id()
        self.name = name
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self.root = self.start_span(name, parent=None)

    def start_span(
        self,
        name: str,
        parent: Optional[Span],
        attributes: Optional[Dict] = None,
    ) -> Span:
        span = Span(
            trace=self,
            name=name,
            parent_id=parent.span_id if parent is not None else None,
            attributes=attributes,
        )
        with self._lock:
            self._spans.append(span)
        return span

    @property
    def finished(self) -> bool:
        return self.root.ended

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def to_payload(self) -> Dict:
        """JSON-ready form: root summary plus spans in start order."""
        with self._lock:
            spans = list(self._spans)
        spans.sort(key=lambda s: s.started_at)
        payload: Dict = {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_at": round(self.root.started_at, 6),
            "duration_s": (
                round(self.root.duration_s, 6)
                if self.root.duration_s is not None
                else None
            ),
            "spans": [span.to_payload() for span in spans],
        }
        if self.root.error is not None:
            payload["error"] = self.root.error
        return payload


def current_span() -> Optional[Span]:
    """The ambient span of this context, or None outside any trace."""
    return _CURRENT_SPAN.get()


def current_trace_id() -> Optional[str]:
    """The ambient trace id (what the log formatter injects)."""
    active = _CURRENT_SPAN.get()
    return active.trace_id if active is not None else None


def current_span_id() -> Optional[str]:
    """The ambient span id (what the log formatter injects)."""
    active = _CURRENT_SPAN.get()
    return active.span_id if active is not None else None


@contextmanager
def span(name: str, **attributes) -> Iterator[Span | _NullSpan]:
    """Open a child span of the ambient span for the ``with`` block.

    Outside any trace this is a no-op yielding :data:`NULL_SPAN`, so
    instrumented library code (planners, the query processor) costs
    nothing when nobody is tracing.  Exceptions are recorded on the
    span and re-raised — a failing stage yields an error span instead
    of a lost trace.
    """
    parent = _CURRENT_SPAN.get()
    if parent is None:
        yield NULL_SPAN
        return
    child = parent.trace.start_span(name, parent=parent,
                                    attributes=attributes)
    token = _CURRENT_SPAN.set(child)
    try:
        yield child
    except BaseException as exc:
        child.record_error(exc)
        raise
    finally:
        child.end()
        _CURRENT_SPAN.reset(token)


class Tracer:
    """Hands out traces and retains the most recent finished ones.

    Parameters
    ----------
    capacity:
        Ring-buffer bound on retained traces; memory stays O(capacity)
        no matter how long the server runs.
    """

    def __init__(self, capacity: int = DEFAULT_BUFFER_SIZE) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"trace buffer capacity must be >= 1, got {capacity}"
            )
        self._lock = threading.Lock()
        self._buffer: Deque[Trace] = deque(maxlen=capacity)

    @contextmanager
    def trace(self, name: str, **attributes) -> Iterator[Span]:
        """Run the ``with`` block inside a trace.

        Starts a new root trace when none is active; nests as an
        ordinary child span otherwise, so a webapp request wrapping a
        service query produces *one* trace, not two.  The trace is
        archived into the ring buffer when its root span closes, even
        when the block raises.
        """
        if _CURRENT_SPAN.get() is not None:
            with span(name, **attributes) as child:
                yield child
            return
        trace = Trace(name)
        root = trace.root
        for key, value in attributes.items():
            root.set_attribute(key, value)
        token = _CURRENT_SPAN.set(root)
        try:
            yield root
        except BaseException as exc:
            root.record_error(exc)
            raise
        finally:
            root.end()
            _CURRENT_SPAN.reset(token)
            with self._lock:
                self._buffer.append(trace)

    def recent(self, limit: Optional[int] = None) -> List[Dict]:
        """Payloads of the most recent traces, newest first."""
        with self._lock:
            traces = list(self._buffer)
        traces.reverse()
        if limit is not None:
            traces = traces[: max(0, limit)]
        return [trace.to_payload() for trace in traces]

    def get(self, trace_id: str) -> Optional[Dict]:
        """The payload of one retained trace, or None if evicted."""
        with self._lock:
            traces = list(self._buffer)
        for trace in traces:
            if trace.trace_id == trace_id:
                return trace.to_payload()
        return None

    def clear(self) -> int:
        """Drop all retained traces; returns how many were dropped."""
        with self._lock:
            dropped = len(self._buffer)
            self._buffer.clear()
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def __repr__(self) -> str:
        return f"Tracer(retained={len(self)})"

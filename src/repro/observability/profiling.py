"""Opt-in per-phase wall-time profiling with a flame-style tree.

Aggregate histograms say a query took 80 ms; they cannot say how much
of it was the snap, the shared tree build, the CH upward searches, the
shortcut unpacking, or the dissimilarity filter.  This module
attributes wall time to *named phases* using the same ``contextvars``
idiom the tracer uses, so attribution follows the query through ordinary
calls (and onto another thread when that thread runs in a copy of the
query's context, which carries the active profile node with it).

Design:

* :func:`phase` is sprinkled through the hot paths (snap, tree-build,
  upward-search, unpack, dissimilarity, render).  Outside a profiling
  scope it costs one context-variable read and does nothing — the
  planners pay nothing when nobody is profiling.
* :class:`Profiler` owns the aggregated tree.  ``profiling_scope()``
  arms it for a ``with`` block (one served query, one batch, one bench
  run); every :func:`phase` inside the block accumulates into the
  tree under its parent phase, building the flame-style breakdown
  ``GET /debug/profile`` serves.
* Nodes are thread-safe; concurrent planner workers attributing into
  sibling phases never race.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: The phase node wall time is currently attributed to, or None when
#: profiling is off (the common case — phase() is then a no-op).
_ACTIVE_NODE: contextvars.ContextVar[Optional["PhaseNode"]] = (
    contextvars.ContextVar("repro_profile_node", default=None)
)


class PhaseNode:
    """One named phase in the aggregated profile tree."""

    __slots__ = ("name", "calls", "total_s", "_children", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self._children: Dict[str, "PhaseNode"] = {}
        self._lock = threading.Lock()

    def child(self, name: str) -> "PhaseNode":
        """The named child node, created on first use (thread-safe)."""
        with self._lock:
            node = self._children.get(name)
            if node is None:
                node = self._children[name] = PhaseNode(name)
            return node

    def add(self, seconds: float) -> None:
        """Attribute one timed call to this phase."""
        with self._lock:
            self.calls += 1
            self.total_s += seconds

    def children(self) -> List["PhaseNode"]:
        with self._lock:
            return list(self._children.values())

    def to_payload(self) -> Dict:
        """Flame-style JSON: totals, self time, nested children.

        ``self_ms`` is the phase's own time minus its children's — the
        time spent *in* the phase rather than in a named sub-phase.
        Children still running (or attributed from another thread mid
        snapshot) can transiently exceed the parent; self time floors
        at zero rather than going negative.
        """
        children = sorted(
            self.children(), key=lambda node: node.total_s, reverse=True
        )
        child_payloads = [child.to_payload() for child in children]
        child_total_ms = sum(child["total_ms"] for child in child_payloads)
        total_ms = round(self.total_s * 1000.0, 3)
        payload: Dict = {
            "name": self.name,
            "calls": self.calls,
            "total_ms": total_ms,
            "self_ms": round(max(total_ms - child_total_ms, 0.0), 3),
        }
        if child_payloads:
            payload["children"] = child_payloads
        return payload


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Attribute the ``with`` block's wall time to the named phase.

    No-op (one context-variable read) outside a profiling scope, so
    instrumented library code is free when profiling is off.
    """
    parent = _ACTIVE_NODE.get()
    if parent is None:
        yield
        return
    node = parent.child(name)
    token = _ACTIVE_NODE.set(node)
    started = time.perf_counter()
    try:
        yield
    finally:
        node.add(time.perf_counter() - started)
        _ACTIVE_NODE.reset(token)


class Profiler:
    """Aggregates phase wall time across profiled scopes.

    Parameters
    ----------
    enabled:
        When False (the default for production serving), every
        ``profiling_scope()`` is a no-op and the instrumented phases
        cost one context-variable read.  Flip with :meth:`enable`.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._root = PhaseNode("profile")
        self._scopes = 0

    def enable(self, on: bool = True) -> None:
        """Turn profiling on or off (affects future scopes)."""
        self.enabled = on

    def reset(self) -> None:
        """Drop everything aggregated so far."""
        with self._lock:
            self._root = PhaseNode("profile")
            self._scopes = 0

    @contextmanager
    def profile(self, name: str = "query") -> Iterator[None]:
        """Arm profiling for the ``with`` block (when enabled).

        The block's phases accumulate under a top-level node of the
        given name; nested ``profile()`` calls nest as phases instead
        of starting a second root, so a batch profiling scope wraps
        its queries' scopes naturally.
        """
        if not self.enabled:
            yield
            return
        parent = _ACTIVE_NODE.get()
        if parent is None:
            with self._lock:
                self._scopes += 1
            parent = self._root
        node = parent.child(name)
        token = _ACTIVE_NODE.set(node)
        started = time.perf_counter()
        try:
            yield
        finally:
            node.add(time.perf_counter() - started)
            _ACTIVE_NODE.reset(token)

    def to_payload(self) -> Dict:
        """The aggregated flame-style tree for ``GET /debug/profile``."""
        with self._lock:
            scopes = self._scopes
            root = self._root
        return {
            "enabled": self.enabled,
            "scopes": scopes,
            "phases": [
                child.to_payload()
                for child in sorted(
                    root.children(),
                    key=lambda node: node.total_s,
                    reverse=True,
                )
            ],
        }

    def __repr__(self) -> str:
        return f"Profiler(enabled={self.enabled}, scopes={self._scopes})"


@contextmanager
def profiling_scope(
    profiler: Optional[Profiler], name: str = "query"
) -> Iterator[None]:
    """Module-level convenience: ``profiler.profile(name)`` or no-op.

    Accepts None so call sites can hold an optional profiler without
    branching.
    """
    if profiler is None:
        yield
        return
    with profiler.profile(name):
        yield


def active_profile_node() -> Optional[PhaseNode]:
    """The phase node of the enclosing scope (None when not profiling)."""
    return _ACTIVE_NODE.get()


def format_profile(payload: Dict, indent: int = 2) -> str:
    """Render a :meth:`Profiler.to_payload` tree as aligned text."""
    lines: List[str] = [
        f"profiled scopes: {payload.get('scopes', 0)}"
    ]

    def walk(node: Dict, depth: int) -> None:
        lines.append(
            f"{' ' * (indent * depth)}{node['name']}: "
            f"{node['total_ms']:.1f} ms total, {node['self_ms']:.1f} ms "
            f"self, {node['calls']} calls"
        )
        for child in node.get("children", ()):
            walk(child, depth + 1)

    for top in payload.get("phases", ()):
        walk(top, 1)
    return "\n".join(lines)

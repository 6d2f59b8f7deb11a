"""Per-query point-to-point backend selection.

The serving hot path can answer a default-weight shortest-path query
three ways: plain Dijkstra on the CSR kernel, goal-directed ALT over an
attached landmark table, or a bidirectional contraction-hierarchy
search over an attached :class:`~repro.core.ch.CchBackend`.  This
module is the tiny API that names those choices and resolves them per
query:

* ``"auto"`` — the fastest structure attached to the network wins
  (CH over ALT over Dijkstra), which is what every caller got
  implicitly before backends were selectable;
* ``"ch"`` / ``"alt"`` — demand that structure; resolving raises
  :class:`~repro.exceptions.ConfigurationError` when it is not
  attached, because silently falling back would defeat differential
  testing;
* ``"dijkstra"`` — force the exact kernel even when accelerators are
  attached (the baseline side of every differential test).

Selection is ambient, like search stats, tracing and deadlines:
:meth:`~repro.core.base.AlternativeRoutePlanner.plan` arms the
planner's backend with :func:`backend_scope`, and the dispatch points
(:func:`repro.algorithms.dijkstra.shortest_path_nodes`) read it with
:func:`active_backend`.  Code outside a ``plan()`` call sees
``"auto"`` and behaves exactly as before this layer existed.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Iterator, Tuple

from repro.exceptions import ConfigurationError

#: Every backend name a planner, query or CLI flag may request.
SERVING_BACKENDS: Tuple[str, ...] = ("auto", "dijkstra", "alt", "ch")

_BACKEND: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_backend", default="auto"
)


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a known backend; raise otherwise."""
    if name not in SERVING_BACKENDS:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose one of "
            f"{', '.join(SERVING_BACKENDS)}"
        )
    return name


def active_backend() -> str:
    """The backend armed for this ``plan()`` call (``"auto"`` outside)."""
    return _BACKEND.get()


@contextmanager
def backend_scope(name: str) -> Iterator[str]:
    """Arm ``name`` as the ambient backend for the block."""
    token = _BACKEND.set(validate_backend(name))
    try:
        yield name
    finally:
        _BACKEND.reset(token)


def resolve_backend(network, requested: str = "auto") -> str:
    """Resolve a requested backend to a concrete one for ``network``.

    Returns ``"ch"``, ``"alt"`` or ``"dijkstra"``.  ``"auto"`` picks
    the best structure attached to the network's CSR view; an explicit
    ``"ch"``/``"alt"`` request without the matching structure raises
    :class:`ConfigurationError` instead of silently degrading.
    """
    validate_backend(requested)
    # Lazy import: repro.graph.csr must stay importable without core.
    from repro.graph.csr import ensure_csr

    csr = ensure_csr(network)
    if requested == "auto":
        if csr.hierarchy is not None:
            return "ch"
        if csr.landmarks is not None:
            return "alt"
        return "dijkstra"
    if requested == "ch":
        if csr.hierarchy is None:
            raise ConfigurationError(
                "backend 'ch' requested but no contraction hierarchy is "
                "attached; call repro.core.ch.ensure_hierarchy(network) "
                "first"
            )
        return "ch"
    if requested == "alt":
        if csr.landmarks is None:
            raise ConfigurationError(
                "backend 'alt' requested but no landmark table is "
                "attached; call repro.core.alt.ensure_landmarks(network) "
                "first"
            )
        return "alt"
    return "dijkstra"

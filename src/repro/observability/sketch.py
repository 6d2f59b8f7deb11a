"""Mergeable streaming quantile sketches (CKMS targeted quantiles).

The serving histograms originally estimated quantiles from a bounded
window of recent observations — fine for a demo, useless for a load
harness: at 1024 retained samples the p999 of a million-observation
stream is computed from noise, and per-worker windows cannot be
combined into a fleet-wide tail.  :class:`QuantileSketch` replaces the
window with the Cormode–Korn–Muthukrishnan–Srivastava *targeted
quantiles* summary: a sorted list of ``(value, g, delta)`` samples
maintained so that any target quantile ``q`` can be answered within a
configured rank error ``eps`` — tight at the tails (p99 within 0.05%
rank, p999 within 0.02% by default) while keeping only O(hundreds) of
samples no matter how long the stream runs.

Two properties the window could never offer:

* **Unbounded accuracy** — the error bound is an invariant of the
  summary, not a function of how recently an observation arrived; the
  p999 of hour one still counts in hour nine.
* **Merge** — :meth:`QuantileSketch.merge` folds another sketch in
  (weighted insertion of its samples), so per-shard or per-process
  sketches combine into one fleet-wide distribution.  Counts are exact
  under merge; rank error degrades gracefully (the merged estimate
  stays within the sum of the two summaries' tolerances in practice,
  and the test tier pins the observed error on fuzzed streams).

The sketch is thread-safe: ``observe()`` appends to a small buffer
under a lock and amortises the sorted-merge ("flush") plus compression
over :data:`DEFAULT_BUFFER_SIZE` observations.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

#: (quantile, allowed rank error) pairs the sketch is tuned for.
#: Queries between targets are answered with the interpolated (looser)
#: invariant; the tails are deliberately the tightest because p99/p999
#: are what the bench regression gate compares.
DEFAULT_TARGETS: Tuple[Tuple[float, float], ...] = (
    (0.50, 0.010),
    (0.90, 0.005),
    (0.95, 0.002),
    (0.99, 0.0005),
    (0.999, 0.0002),
)

#: Observations buffered before a sorted-merge flush into the summary.
DEFAULT_BUFFER_SIZE = 128


class QuantileSketch:
    """A mergeable CKMS quantile summary over a stream of floats.

    Parameters
    ----------
    targets:
        ``(quantile, epsilon)`` pairs; each query ``q`` near a target
        is answered within ``epsilon`` *rank* error (the returned value
        sits within ``epsilon * n`` ranks of the true ``q``-quantile).
    buffer_size:
        Observations buffered between flushes; larger buffers amortise
        the sorted merge further at the cost of query-time flush work.
    """

    __slots__ = (
        "_targets", "_buffer_size", "_lock", "_samples", "_buffer",
        "_count", "_min", "_max", "_sum",
    )

    def __init__(
        self,
        targets: Sequence[Tuple[float, float]] = DEFAULT_TARGETS,
        buffer_size: int = DEFAULT_BUFFER_SIZE,
    ) -> None:
        if not targets:
            raise ConfigurationError("sketch needs at least one target")
        for quantile, epsilon in targets:
            if not 0.0 < quantile < 1.0:
                raise ConfigurationError(
                    f"target quantile must be in (0, 1), got {quantile}"
                )
            if not 0.0 < epsilon < 0.5:
                raise ConfigurationError(
                    f"target epsilon must be in (0, 0.5), got {epsilon}"
                )
        if buffer_size < 1:
            raise ConfigurationError(
                f"buffer_size must be >= 1, got {buffer_size}"
            )
        self._targets = tuple(
            (float(q), float(e)) for q, e in sorted(targets)
        )
        self._buffer_size = buffer_size
        self._lock = threading.Lock()
        # Sorted [value, g, delta] triples: g is the rank span the
        # sample absorbed, delta the extra rank uncertainty allowed.
        self._samples: List[List[float]] = []
        self._buffer: List[float] = []
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0

    # -- ingest --------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._buffer.append(value)
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._buffer) >= self._buffer_size:
                self._flush_locked()
                self._compress_locked()

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch's distribution into this one.

        The other sketch is read under its own lock (a consistent
        snapshot) and left untouched; its samples are inserted here
        with their rank spans (``g``) preserved, so the combined count
        is exact.  Returns ``self`` for chaining.
        """
        if other is self:
            raise ConfigurationError("cannot merge a sketch into itself")
        samples, count, lo, hi, total = other._snapshot()
        if count == 0:
            return self
        with self._lock:
            self._flush_locked()
            for value, g, _delta in samples:
                self._insert_weighted_locked(value, g)
            self._count_check()
            self._sum += total
            self._min = min(self._min, lo)
            self._max = max(self._max, hi)
            self._compress_locked()
        return self

    # -- queries -------------------------------------------------------------

    @property
    def count(self) -> int:
        """Exact number of observations (survives merges)."""
        with self._lock:
            return self._count + len(self._buffer)

    @property
    def sum(self) -> float:
        """Exact sum of observations (survives merges)."""
        with self._lock:
            return self._sum

    @property
    def min(self) -> float:
        """Exact minimum, or 0.0 on an empty sketch."""
        with self._lock:
            return self._min if self._count or self._buffer else 0.0

    @property
    def max(self) -> float:
        """Exact maximum, or 0.0 on an empty sketch."""
        with self._lock:
            return self._max if self._count or self._buffer else 0.0

    @property
    def retained(self) -> int:
        """Samples currently held — the sketch's memory footprint."""
        with self._lock:
            return len(self._samples) + len(self._buffer)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile of everything observed so far.

        ``q=0``/``q=1`` return the exact min/max; an empty sketch
        returns 0.0 (matching the histogram convention).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            self._flush_locked()
            if not self._samples:
                return 0.0
            if q == 0.0:
                return self._min
            if q == 1.0:
                return self._max
            n = self._count
            threshold = q * n + self._invariant(q * n, n) / 2.0
            rank = 0.0
            samples = self._samples
            for index in range(1, len(samples)):
                rank += samples[index - 1][1]
                if rank + samples[index][1] + samples[index][2] > threshold:
                    return samples[index - 1][0]
            return samples[-1][0]

    def to_payload(self) -> Dict[str, float]:
        """JSON-ready summary: count/sum/min/max plus target quantiles."""
        payload: Dict[str, float] = {"count": self.count}
        if payload["count"]:
            payload["sum"] = round(self.sum, 9)
            payload["min"] = self.min
            payload["max"] = self.max
            for quantile, _epsilon in self._targets:
                # 0.5 -> p50, 0.99 -> p99, 0.999 -> p999
                key = f"p{100 * quantile:g}".replace(".", "")
                payload[key] = self.quantile(quantile)
        return payload

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(count={self.count}, retained={self.retained})"
        )

    # -- internals -----------------------------------------------------------

    def _snapshot(self):
        with self._lock:
            self._flush_locked()
            return (
                [list(sample) for sample in self._samples],
                self._count,
                self._min,
                self._max,
                self._sum,
            )

    # -- cross-process transport ---------------------------------------------

    def to_state(self) -> dict:
        """A picklable/JSON-safe snapshot of the whole distribution.

        Shard workers ship these over the process boundary; the parent
        rebuilds with :meth:`from_state` and folds the result in via
        :meth:`merge`, so fleet-wide quantiles keep the per-sketch rank
        error guarantee without sharing any memory.
        """
        samples, count, lo, hi, total = self._snapshot()
        state = {
            "samples": [[value, g] for value, g, _delta in samples],
            "count": count,
            "sum": total,
        }
        if count:
            state["min"] = lo
            state["max"] = hi
        return state

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_state` output.

        The reconstruction inserts each sample with its preserved rank
        span (``g``) — exactly what :meth:`merge` does with a live
        sketch — so counts stay exact and rank error degrades no
        faster than under an ordinary merge.
        """
        sketch = cls()
        count = state["count"]
        if count:
            with sketch._lock:
                for value, g in state["samples"]:
                    sketch._insert_weighted_locked(value, g)
                sketch._count_check()
                sketch._sum = state["sum"]
                sketch._min = state["min"]
                sketch._max = state["max"]
                sketch._compress_locked()
        return sketch

    def _invariant(self, rank: float, n: int) -> float:
        """Allowed rank span ``f(rank, n)`` of a sample at ``rank``."""
        span = math.inf
        for quantile, epsilon in self._targets:
            if rank <= quantile * n:
                allowed = 2.0 * epsilon * (n - rank) / (1.0 - quantile)
            else:
                allowed = 2.0 * epsilon * rank / quantile
            if allowed < span:
                span = allowed
        return max(span, 1.0)

    def _flush_locked(self) -> None:
        """Sorted-merge the buffer into the summary (one pass)."""
        if not self._buffer:
            return
        self._buffer.sort()
        samples = self._samples
        merged: List[List[float]] = []
        index = 0
        rank = 0.0  # cumulative g of samples already placed
        for value in self._buffer:
            while index < len(samples) and samples[index][0] <= value:
                rank += samples[index][1]
                merged.append(samples[index])
                index += 1
            if not merged or index == len(samples):
                delta = 0.0  # new global min or max: rank is exact
            else:
                delta = max(
                    math.floor(self._invariant(rank, self._count)) - 1, 0
                )
            merged.append([value, 1.0, delta])
            rank += 1.0
            self._count += 1
        merged.extend(samples[index:])
        self._samples = merged
        self._buffer.clear()

    def _insert_weighted_locked(self, value: float, g: float) -> None:
        """Insert one sample carrying ``g`` ranks (the merge path)."""
        samples = self._samples
        index = 0
        rank = 0.0
        while index < len(samples) and samples[index][0] <= value:
            rank += samples[index][1]
            index += 1
        if index == 0 or index == len(samples):
            delta = 0.0
        else:
            delta = max(
                math.floor(self._invariant(rank, self._count)) - 1, 0
            )
        samples.insert(index, [value, g, delta])
        self._count += int(g)

    def _count_check(self) -> None:
        # Counts are carried on the samples; nothing to reconcile, but
        # keeping the hook makes merge bookkeeping auditable in tests.
        pass

    def _compress_locked(self) -> None:
        """Merge neighbours whose combined span fits the invariant."""
        samples = self._samples
        if len(samples) < 3:
            return
        n = self._count
        # rank before sample i = sum of g over samples 0..i-1
        ranks: List[float] = [0.0] * len(samples)
        running = 0.0
        for index in range(len(samples)):
            ranks[index] = running
            running += samples[index][1]
        index = len(samples) - 2
        while index >= 1:
            current = samples[index]
            nxt = samples[index + 1]
            if (
                current[1] + nxt[1] + nxt[2]
                <= self._invariant(ranks[index], n)
            ):
                nxt[1] += current[1]
                del samples[index]
                del ranks[index]
            index -= 1


def merge_sketches(sketches: Iterable[QuantileSketch]) -> QuantileSketch:
    """Combine any number of sketches into a fresh one.

    The inputs are left untouched; the result uses the first sketch's
    targets (merging sketches tuned for different targets answers with
    the *result's* guarantees).  An empty iterable yields an empty
    default-target sketch.
    """
    result: Optional[QuantileSketch] = None
    for sketch in sketches:
        if result is None:
            result = QuantileSketch(
                targets=sketch._targets, buffer_size=sketch._buffer_size
            )
        result.merge(sketch)
    return result if result is not None else QuantileSketch()

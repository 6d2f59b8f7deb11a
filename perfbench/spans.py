"""Benchmark-side spans: name, start, end, parent; kept in memory.

Spans of one request share its id.  A span's self time is its duration
minus the part of its interval covered by its children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Span:
    sid: int
    rid: object
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans of one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.current_id: object = None

    @contextmanager
    def span(self, name: str, rid: object):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(sid, rid, name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def add(self, rid, name, start, end, parent=None) -> Span:
        """Record a span measured elsewhere (another process or task)."""
        record = Span(len(self.spans), rid, name, start, end, parent)
        self.spans.append(record)
        return record

    def self_times(self) -> Dict[int, float]:
        """Self time of every span: duration minus covered child time."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.sid, ()),
                                key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.sid] = span.duration - covered
        return out

    def mean_ms(self, name: str, self_time: bool = False) -> float:
        """Mean (self) time of the spans called ``name``, in ms."""
        selves = self.self_times() if self_time else None
        values = [
            (selves[span.sid] if self_time else span.duration)
            for span in self.spans if span.name == name
        ]
        return 1000.0 * sum(values) / len(values) if values else 0.0

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

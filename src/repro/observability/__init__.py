"""Observability: tracing, structured logging, search instrumentation.

Three concerns, one ``contextvars`` backbone:

* **Tracing** (:mod:`~repro.observability.tracing`) — every served
  query becomes a trace of per-stage spans (snap, cache, one plan per
  approach, filter, render) that lands in a bounded ring buffer behind
  ``GET /trace``.
* **Structured logging** (:mod:`~repro.observability.logs`) — stdlib
  logging with a JSON formatter and ambient trace/span ids injected
  into every record, configured via ``--log-level`` / ``--log-json``.
* **Search instrumentation** (:mod:`~repro.observability.search`) —
  :class:`SearchStats` counters (nodes expanded, edges relaxed,
  candidates generated/accepted/pruned, dissimilarity evaluations)
  populated by every planner and surfaced on
  :class:`~repro.core.base.RouteSet`, ``/metrics`` and the benchmarks.
* **Prometheus exposition** (:mod:`~repro.observability.prometheus`) —
  renders the metrics payload as text format 0.0.4 for scrape jobs.
* **Quantile sketches** (:mod:`~repro.observability.sketch`) —
  mergeable CKMS streaming summaries behind every serving histogram,
  so p50/p99/p999 stay accurate over unbounded streams.
* **Per-phase profiling** (:mod:`~repro.observability.profiling`) —
  opt-in wall-time attribution to named phases (snap, tree-build,
  upward-search, unpack, dissimilarity, render), aggregated into the
  flame-style tree behind ``GET /debug/profile``.
* **Query logging** (:mod:`~repro.observability.querylog`) — sampled,
  bounded JSONL capture of served queries (with trace/span ids and
  route fingerprints) that ``repro replay`` re-drives against a live
  service.  The replay harness itself lives in
  :mod:`repro.observability.replay`; it is imported on demand rather
  than re-exported here because it sits *above* the serving layer.
* **Bench telemetry** (:mod:`~repro.observability.benchjson`) —
  versioned machine-readable ``BENCH_*.json`` reports plus the
  ``repro bench diff`` regression gate.
"""

from repro.observability.benchjson import (
    BENCH_SCHEMA,
    BENCH_VERSION,
    BenchDiff,
    BenchReport,
    diff_reports,
    env_fingerprint,
    format_diff,
    load_report,
)
from repro.observability.logs import (
    LOG_LEVELS,
    JsonLogFormatter,
    TextLogFormatter,
    TraceContextFilter,
    configure_logging,
    get_logger,
)
from repro.observability.profiling import (
    PhaseNode,
    Profiler,
    active_profile_node,
    format_profile,
    phase,
    profiling_scope,
)
from repro.observability.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.observability.querylog import (
    QUERY_LOG_SCHEMA,
    QUERY_LOG_VERSION,
    QueryLog,
    QueryLogError,
    build_query_record,
    iter_query_log,
    log_stats,
    read_query_log,
    result_fingerprints,
    route_set_fingerprint,
    tail_records,
)
from repro.observability.search import (
    STAT_FIELDS,
    SearchStats,
    active_search_stats,
    collect_search_stats,
)
from repro.observability.sketch import (
    DEFAULT_TARGETS,
    QuantileSketch,
    merge_sketches,
)
from repro.observability.tracing import (
    DEFAULT_BUFFER_SIZE,
    NULL_SPAN,
    Span,
    Trace,
    Tracer,
    current_span,
    current_span_id,
    current_trace_id,
    span,
)

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_VERSION",
    "BenchDiff",
    "BenchReport",
    "DEFAULT_BUFFER_SIZE",
    "DEFAULT_TARGETS",
    "JsonLogFormatter",
    "LOG_LEVELS",
    "NULL_SPAN",
    "PROMETHEUS_CONTENT_TYPE",
    "PhaseNode",
    "Profiler",
    "QUERY_LOG_SCHEMA",
    "QUERY_LOG_VERSION",
    "QuantileSketch",
    "QueryLog",
    "QueryLogError",
    "STAT_FIELDS",
    "SearchStats",
    "Span",
    "TextLogFormatter",
    "Trace",
    "TraceContextFilter",
    "Tracer",
    "active_profile_node",
    "active_search_stats",
    "build_query_record",
    "collect_search_stats",
    "configure_logging",
    "current_span",
    "current_span_id",
    "current_trace_id",
    "diff_reports",
    "env_fingerprint",
    "format_diff",
    "format_profile",
    "get_logger",
    "iter_query_log",
    "load_report",
    "log_stats",
    "merge_sketches",
    "phase",
    "profiling_scope",
    "read_query_log",
    "render_prometheus",
    "result_fingerprints",
    "route_set_fingerprint",
    "span",
    "tail_records",
]

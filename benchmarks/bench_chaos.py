"""Experiment S2 — chaos benchmark: serving under planner faults.

One approach's planner is wrapped in a seeded
:class:`~repro.serving.FaultInjectingPlanner` that randomly raises,
hangs past the query deadline, or returns an empty route set.  The same
fault schedule is then served twice:

* **baseline** — no circuit breakers, no admission control.  The
  query deadline still unwinds a hang, but planning is serial, so every
  hang also costs the approaches after the faulty one in that query;
* **resilient** — the same deadline, and the faulty approach's circuit
  breaker opens after repeated failures, so later queries fast-fail it
  and serve the approaches after it again.

Reported per mode: availability (fraction of queries that produced at
least one route set), degraded-query rate, and p50/p99 latency.  The
acceptance criterion is asserted: resilient availability must be at
least the baseline's, with p99 bounded near the query timeout.

Run with ``make bench-chaos``; results land in
``benchmarks/output/bench_chaos.{txt,json}``.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.cities import melbourne
from repro.demo.query_processor import QueryProcessor
from repro.serving import FaultInjectingPlanner, RouteQuery, RouteService

from conftest import write_artifact
from telemetry import BenchTelemetry

TELEMETRY = BenchTelemetry("bench_chaos")


@pytest.fixture(scope="module", autouse=True)
def _telemetry():
    yield
    TELEMETRY.write()


#: Servable (source, target) pairs per mode.
QUERY_COUNT = 12
#: The approach whose planner misbehaves.
FAULTY_APPROACH = "Plateaus"
#: Fault mix rolled once per invocation of the faulty planner.
FAULTS = dict(p_error=0.2, p_hang=0.5, p_empty=0.0, hang_s=3.0)
#: Query deadline — well under ``hang_s`` so every hang overruns it.
TIMEOUT_S = 0.8
#: Failures that open the faulty approach's circuit.
BREAKER_THRESHOLD = 3


@pytest.fixture(scope="module")
def network():
    return melbourne(size="small")


@pytest.fixture(scope="module")
def processor(network):
    return QueryProcessor(network)


@pytest.fixture(scope="module")
def queries(processor):
    """Pre-filtered servable queries, so unroutable picks don't count
    against availability."""
    rng = random.Random("bench-chaos:queries")
    network = processor.network
    service = RouteService(processor, cache_size=0, timeout_s=120.0)
    selected = []
    try:
        while len(selected) < QUERY_COUNT:
            s = network.node(rng.randrange(network.num_nodes))
            t = network.node(rng.randrange(network.num_nodes))
            if s.id == t.id:
                continue
            query = RouteQuery(s.lat, s.lon, t.lat, t.lon)
            try:
                service.query(query)
            except Exception:
                continue
            selected.append(query)
    finally:
        service.close()
    return selected


def _faulty_processor(processor):
    planners = dict(processor.planners)
    planners[FAULTY_APPROACH] = FaultInjectingPlanner(
        planners[FAULTY_APPROACH], seed=0, **FAULTS
    )
    return QueryProcessor(processor.network, planners)


def _run_mode(service, queries):
    served = degraded = 0
    latencies = []
    for query in queries:
        started = time.perf_counter()
        try:
            result = service.query(query)
        except Exception:
            result = None
        latencies.append(time.perf_counter() - started)
        if result is not None:
            served += 1
            degraded += int(result.degraded)
    latencies.sort()
    total = len(queries)
    return {
        "queries": total,
        "served": served,
        "availability": round(served / total, 4),
        "degraded_rate": round(degraded / total, 4),
        "p50_latency_s": round(latencies[total // 2], 4),
        "p99_latency_s": round(
            latencies[min(total - 1, int(total * 0.99))], 4
        ),
    }


def test_bench_chaos_resilience_beats_baseline(processor, queries):
    baseline_proc = _faulty_processor(processor)
    resilient_proc = _faulty_processor(processor)

    baseline = RouteService(
        baseline_proc,
        cache_size=0,
        timeout_s=TIMEOUT_S,
        breaker_threshold=0,
        max_inflight=0,
    )
    resilient = RouteService(
        resilient_proc,
        cache_size=0,
        timeout_s=TIMEOUT_S,
        breaker_threshold=BREAKER_THRESHOLD,
        breaker_cooldown_s=60.0,
    )
    try:
        baseline_report = _run_mode(baseline, queries)
        resilient_report = _run_mode(resilient, queries)

        circuits = resilient.circuits_payload()
        faulty = resilient_proc.planners[FAULTY_APPROACH]
        report = {
            "faulty_approach": FAULTY_APPROACH,
            "faults": FAULTS,
            "timeout_s": TIMEOUT_S,
            "baseline": baseline_report,
            "resilient": resilient_report,
            "resilient_injected": faulty.injected,
            "resilient_circuit": circuits[FAULTY_APPROACH],
        }
        lines = [
            "Experiment S2 — chaos benchmark "
            f"({FAULTY_APPROACH} faulty, {len(queries)} queries)",
            f"faults: {FAULTS}",
            f"timeout: {TIMEOUT_S}s",
        ]
        for mode in ("baseline", "resilient"):
            stats = report[mode]
            lines.append(
                f"{mode}: availability={stats['availability']:.2f} "
                f"degraded_rate={stats['degraded_rate']:.2f} "
                f"p50={stats['p50_latency_s']}s "
                f"p99={stats['p99_latency_s']}s"
            )
        lines.append(
            f"circuit.{FAULTY_APPROACH}: "
            f"state={circuits[FAULTY_APPROACH]['state']} "
            f"opened_total={circuits[FAULTY_APPROACH]['opened_total']}"
        )
        write_artifact("bench_chaos.txt", "\n".join(lines))
        write_artifact("bench_chaos.json", json.dumps(report, indent=2))

        # Availability under faults is machine-independent, so it gates
        # tightly; the latency tail only gates against gross regressions
        # (the absolute depends on the box).
        TELEMETRY.add_metric(
            "resilient_availability",
            resilient_report["availability"],
            direction="higher", threshold=0.05,
        )
        TELEMETRY.add_metric(
            "baseline_availability", baseline_report["availability"],
        )
        TELEMETRY.add_metric(
            "resilient_degraded_rate", resilient_report["degraded_rate"],
        )
        TELEMETRY.add_metric(
            "resilient_p99_latency_s",
            resilient_report["p99_latency_s"], unit="s",
            direction="lower", threshold=3.0,
        )

        assert (
            resilient_report["availability"]
            >= baseline_report["availability"]
        ), report
        # Every query keeps at least the three healthy approaches.
        assert resilient_report["availability"] >= 0.9, report
        # Cooperative deadlines bound tail latency near the timeout.
        assert resilient_report["p99_latency_s"] <= TIMEOUT_S * 3, report
        # The faulty approach's breaker actually opened.
        assert circuits[FAULTY_APPROACH]["opened_total"] >= 1, report
    finally:
        baseline.close()
        resilient.close()

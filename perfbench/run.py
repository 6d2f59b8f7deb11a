"""The serving benchmark: one command per workload run.

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 40 --trace 0

Drives the deployment users run (``repro serve``: asyncio front end →
shard pipe → one worker per city over v3 mmap snapshots → RouteService
→ the four study planners → kernels → rendered response) with the
benchmark's own open-loop HTTP client over at most ``nproc`` keep-alive
connections.  The settings the two workloads set differently (rates,
latency and lateness limits, ramp, hot set) live in ``workloads.json``,
together with the end-to-end metric and workload each per-layer metric
should move; the settings they share are the constants below, and
metric names and units live in ``BENCHMARK.json`` at the repository
root.

The requests are the same in every run of a workload: study-like trips
(at least 2 km apart, ``repro.experiments.queries.sample_od_pairs``)
drawn from fixed seeds.  ``--seed`` varies only the arrival times.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: launch to a 200 from ``/healthz``, median of several
  launches;
* ``p50_ms`` and ``tail_ms``: latency from scheduled arrival at the
  workload's fixed Poisson rate, each the median over consecutive
  sub-windows of ``--seconds`` so a few slow seconds of the host do not
  decide the run; the tail is the p90;
* ``server_pss_mb``: summed PSS of the front end and every worker.

The fixed rate is about a quarter (cold-mix) or a fifth (hot-mix) of
the workload's median ``load.max_rps``, measured as 32 and 300 rps on
a 2-vCPU VM: on a small shared host the capacity swings by a third or
more from minute to minute, and at half of it the slow minutes put the
window near saturation, where latency follows the host, not the code.
At a quarter, requests seldom overlap, so the latency is mostly the
request's own work.

``--trace 1`` reports the per-layer metrics from spans recorded in this
directory's code only: the client request, a timing proxy around the
router, worker ``/metrics`` deltas, and an in-process replay of a
seeded sample of the same requests plus a seeded rush-hour batch
sequence.  It runs the ledger sample, an untraced half window, the
``load.max_rps`` staircase and a traced half window.  The staircase
is evenly spaced arrivals from the workload's ramp start, below its
fixed rate, rising 7 % a step; a step passes when ``ok / sent >= 0.99``, its p99 is under the
latency limit and the client queue did not grow, and ``load.max_rps``
is the last step passed before two failures in a row.  It is a
per-layer metric, without a bound, because its run-to-run spread on
such a host exceeds every bound allowed.

Every 200 response is checked, and a seeded sample is compared route
for route with an in-process ``RouteService`` over the same snapshot.
Any failure or mismatch makes the run incorrect and the exit code
non-zero.  So does an invalid run: a generator that ran late, a
staircase whose capacity is not above the fixed rate, or a traced run
whose layer times do not account for the client-observed mean.  The last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    judge_steps,
    open_loop,
    poisson_offsets,
    quantile,
    staircase_offsets,
    stop_at_knee,
)

#: Wall-clock budget of one run, under the 180 s a run may take.
RUN_BUDGET_S = 170

#: The deployment: one shard per city, snapshots at this size preset.
CITIES = ("copenhagen", "dhaka", "melbourne")
SIZE = "full"
#: Launches per run; ``setup_s`` is their median.
SETUPS = 2
#: Quantile reported as ``tail_ms`` (a p99 needs more completions than a
#: cold run at half its capacity can make in one window).
TAIL_QUANTILE = 0.9
#: Staircase rate ratio between consecutive steps, finer than every bound.
RAMP_GROWTH = 1.07
#: Served answers compared route for route with the in-process service.
VERIFY_SAMPLE = 9
#: Requests and rush-hour batches replayed in-process by a traced run.
REPLAY_SAMPLE = 60
REPLAY_BATCHES = 10
#: A traced run is invalid unless its layer times sum to the
#: client-observed mean within this share.
LEDGER_TOLERANCE = 0.10
#: Trips sampled per city for the fixed request list; a run uses a
#: prefix of each.
POOL_PER_CITY = 1500


class RunTimeout(Exception):
    pass


def load_config():
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        config = json.load(handle)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return config, declared


def body_of(network, pair):
    src, dst = network.node(pair[0]), network.node(pair[1])
    return {"version": 1, "source_lat": src.lat, "source_lon": src.lon,
            "target_lat": dst.lat, "target_lon": dst.lon}


class Requests:
    """The workload's route requests, the same whatever the run seed.

    Cold: every city's trips in a fixed order, cities taken in turn, no
    trip twice, so the route cache never hits.  Hot: a fixed hot set of
    ``hot_per_city`` trips per city, drawn Zipf-wise (exponent
    ``zipf_s``) in a fixed sequence.  The hot-set size and exponent are
    arbitrary choices: a set that fits every worker's route cache and a
    moderate skew.
    """

    def __init__(self, cfg, networks) -> None:
        from repro.experiments.queries import sample_od_pairs

        self.hot_mode = "hot_per_city" in cfg
        label = "perfbench-hot" if self.hot_mode else "perfbench-cold"
        count = cfg["hot_per_city"] if self.hot_mode else POOL_PER_CITY
        pools = {}
        for city in sorted(networks):
            pairs = sample_od_pairs(networks[city], count, label=label)
            pools[city] = [(city, body_of(networks[city], pair))
                           for pair in dict.fromkeys(pairs)]
        if self.hot_mode:
            self.hot = [item for city in sorted(pools) for item in pools[city]]
            random.Random(label).shuffle(self.hot)
            cum = list(itertools.accumulate(
                1.0 / (rank + 1) ** cfg["zipf_s"]
                for rank in range(len(self.hot))))
            draws = random.Random(f"{label}:draws")
            self.stream = iter(lambda: draws.choices(
                self.hot, cum_weights=cum)[0], None)
        else:
            self.hot = []
            self.stream = (item for row in itertools.zip_longest(
                *pools.values()) for item in row if item is not None)

    def draw(self, n: int):
        items = list(itertools.islice(self.stream, n))
        if len(items) < n:
            raise RuntimeError("the fixed request list ran out; "
                               "raise POOL_PER_CITY")
        return items


def sub_windows(window, count):
    """Latencies (ms) of ``count`` equal consecutive slices of a window.

    A median over slices shrugs off a few seconds of host slowdown that
    a single whole-window percentile would absorb.
    """
    slices = [[] for _ in range(count)]
    for outcome in window.ok:
        position = (outcome.due - window.start) / window.duration_s
        slices[min(count - 1, int(position * count))].append(
            outcome.latency_s * 1000.0)
    return slices


def lateness_p99_ms(window) -> float:
    return 1000.0 * quantile(window.lateness_s, 0.99)


def encode(body, rid=None) -> bytes:
    if rid is not None:
        body = dict(body, bench_rid=rid)
    return json.dumps(body).encode("utf-8")


class Run:
    """One workload run: deploy, load, check, report."""

    def __init__(self, args, cfg) -> None:
        self.args = args
        self.cfg = cfg
        self.rng = random.Random(f"perfbench:{args.workload}:{args.seed}")
        self.conns = len(os.sched_getaffinity(0))
        self.work = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
        self.deployment = None
        self.refs = {}
        self.attempted = 0
        self.failures = []
        self.invalid = []
        self.phases = []
        self.rid = 0

    # -- pieces ---------------------------------------------------------

    def send(self, offsets, items, traced=False, connections=None, **kwargs):
        """One open-loop window carrying ``items`` at ``offsets``."""
        bodies = []
        rid_base = self.rid
        for _city, body in items:
            bodies.append(encode(body, self.rid if traced else None))
            self.rid += 1
        window = asyncio.run(open_loop(
            "127.0.0.1", self.deployment.port, connections or self.conns,
            offsets, bodies, **kwargs))
        window.items = items
        window.rid_base = rid_base if traced else None
        self.account(window)
        return window

    def window(self, rate, duration, traced=False):
        """Seeded Poisson arrivals at ``rate`` for ``duration`` seconds."""
        offsets = poisson_offsets(rate, duration, self.rng)
        window = self.send(offsets, self.requests.draw(len(offsets)), traced,
                           offered_rps=rate, duration_s=duration)
        self.check_lateness(window)
        return window

    def check_lateness(self, window) -> float:
        """A window whose generator ran late makes the run invalid."""
        late = lateness_p99_ms(window)
        if late > self.cfg["lateness_limit_ms"]:
            self.invalid.append(
                f"generator ran late: p99 lateness {late:.1f} ms > "
                f"{self.cfg['lateness_limit_ms']} ms")
        return late

    def closed_burst(self, items):
        """Send ``items`` back to back (the warm-up)."""
        return self.send([0.0] * len(items), items)

    def staircase(self):
        """The last step rate passed before two failing steps in a row."""
        ramp, limit = self.cfg["ramp"], self.cfg["latency_limit_ms"]
        offsets, step_of, rates = staircase_offsets(
            ramp["start_rps"], RAMP_GROWTH, ramp["steps"],
            ramp["min_step_s"], ramp["min_arrivals"])
        window = self.send(
            offsets, self.requests.draw(len(offsets)),
            stop_before=stop_at_knee(step_of, limit, ramp["slack"]))
        max_rps, steps = judge_steps(window, step_of, rates, limit,
                                     ramp["slack"])
        if max_rps <= self.cfg["rate_rps"]:
            self.invalid.append(
                f"measured capacity {max_rps:.1f} rps is not above the "
                f"fixed rate {self.cfg['rate_rps']} rps")
        return max_rps, steps, self.check_lateness(window)

    def account(self, window) -> None:
        """Count every request; a non-200 or an invalid answer fails."""
        from replay import check_response

        self.attempted += window.sent
        for outcome in window.outcomes:
            if outcome.status != 200:
                self.failures.append(
                    f"HTTP {outcome.status} {outcome.error or outcome.body[:200]}"
                )
                continue
            problem = check_response(outcome.body)
            if problem:
                self.failures.append(problem)
        for _ in range(window.sent - len(window.outcomes)):
            self.failures.append("request never completed")

    def verify(self, window, count, cities) -> None:
        """Seeded sample of served answers vs the in-process service."""
        from replay import compare

        ok = [o for o in sorted(window.ok, key=lambda o: o.index)
              if window.items[o.index][0] in cities]
        for outcome in self.rng.sample(ok, min(count, len(ok))):
            city, body = window.items[outcome.index]
            self.attempted += 1
            problem = compare(self.refs[city], body, outcome.body)
            if problem:
                self.failures.append(f"{city}: {problem}")

    # -- the run --------------------------------------------------------

    def prepare(self) -> None:
        from replay import Reference, build_snapshot

        self.work.mkdir(parents=True, exist_ok=True)
        self.snapshots = {}
        for city in CITIES:
            path = self.work / f"{city}-{SIZE}-0.rprn"
            build_snapshot(city, SIZE, path)
            self.snapshots[city] = str(path)
            self.refs[city] = Reference(city, str(path))
        self.requests = Requests(
            self.cfg, {c: r.network for c, r in self.refs.items()})

    def deploy(self) -> None:
        from deploy import Deployment

        self.setups = []
        for attempt in range(SETUPS):
            self.deployment = Deployment(
                self.snapshots, self.work,
                trace=bool(self.args.trace),
                route_delay_ms=self.cfg.get("route_delay_ms", 0.0))
            self.setups.append(self.deployment.start())
            if attempt < SETUPS - 1:
                self.deployment.stop()

    def warm(self) -> None:
        if self.requests.hot_mode:
            self.closed_burst(self.requests.hot)
        else:
            self.closed_burst(self.requests.draw(2 * len(CITIES)))

    def run(self):
        self.phase("prepare")
        self.prepare()
        try:
            self.phase("deploy")
            self.deploy()
            self.phase("warm")
            self.warm()
            pss = self.deployment.pss_mb()
            self.phase("measure")
            if self.args.trace:
                result = self.traced_windows()
            else:
                result = self.untraced_windows()
        finally:
            self.phase("stop")
            if self.deployment is not None:
                self.deployment.stop()
        result["pss"] = pss
        self.phase("check")
        cities = list(CITIES)
        if not self.args.trace:  # one seeded city keeps the run short
            cities = [self.rng.choice(cities)]
        self.verify(result["window"], VERIFY_SAMPLE, cities)
        if self.args.trace:  # after verify: the replay advances epochs
            self.phase("replay")
            result.update(self.replay(result))
        self.phase("done")
        return result

    def phase(self, name) -> None:
        now = time.monotonic()
        if self.phases:
            last, started = self.phases[-1]
            print(f"perfbench: {last} took {now - started:.2f} s",
                  file=sys.stderr)
        self.phases.append((name, now))

    def untraced_windows(self):
        return {"window": self.window(self.cfg["rate_rps"], self.args.seconds)}

    def traced_windows(self):
        half = self.args.seconds / 2.0
        ledger = self.ledger_sample()
        untraced = self.window(self.cfg["rate_rps"], half)
        max_rps, steps, ramp_late = self.staircase()
        self.diagnostics = {
            "ramp_lateness_p99_ms": round(ramp_late, 3),
            "steps": [s.to_json() for s in steps],
        }
        self.deployment.command(cmd="trace", on=True)
        before = self.deployment.metrics()
        traced = self.window(self.cfg["rate_rps"], half, traced=True)
        after = self.deployment.metrics()
        spans = self.deployment.command(cmd="dump")["spans"]
        self.deployment.command(cmd="trace", on=False)
        return {"window": traced, "untraced": untraced, "before": before,
                "after": after, "proxy_spans": spans,
                "max_rps": max_rps, "steps": steps, **ledger}

    def ledger_sample(self):
        """Serve a sample one request at a time, replaying each in-process.

        Each served request is followed at once by its in-process replay
        so both see the host at the same speed.  The sample runs first,
        right after warm-up, while the workers' heaps are as small as
        the references': a worker whose route cache is full collects
        garbage for longer per query, which no fresh replay reproduces.
        The server and this process share one CPU meanwhile: the CPUs
        of a shared host can differ in speed by a third, and a request
        served on one and replayed on the other would put that
        difference into the ledger.
        """
        from deploy import pinned
        from replay import prime, replay_served
        from spans import SpanRecorder

        sample = (self.rng.sample(self.requests.hot, REPLAY_SAMPLE)
                  if self.requests.hot_mode
                  else self.requests.draw(REPLAY_SAMPLE))
        # Warm the references as serving warmed the workers: with the
        # sample itself on hot-mix, so each timed query is a cache hit;
        # with other trips on cold-mix, so each plans from scratch and
        # finds nothing of its own trip memoised.
        prime(self.refs, sample if self.requests.hot_mode
              else self.requests.draw(4 * len(CITIES)))
        self.deployment.command(cmd="trace", on=True)
        before = self.deployment.metrics()
        serial, ledger_spans = [], SpanRecorder()
        pids = [*self.deployment.pids().values(), os.getpid()]
        with pinned(pids, {min(os.sched_getaffinity(0))}):
            for rid, item in enumerate(sample):
                serial.append(self.send([0.0], [item], traced=True,
                                        connections=1))
                replay_served(self.refs[item[0]], item[1], rid, ledger_spans)
        after = self.deployment.metrics()
        self.deployment.command(cmd="trace", on=False)
        return {"serial": serial, "sample": sample,
                "ledger_spans": ledger_spans,
                "serial_before": before, "serial_after": after}

    # -- metrics --------------------------------------------------------

    def end_to_end(self, result):
        window = result["window"]
        latencies = window.latencies_ms()
        slices = sub_windows(window, self.cfg["sub_windows"])
        self.diagnostics = {
            "slice_p50_ms": [round(quantile(s, 0.5), 3) for s in slices],
            "slice_tail_ms": [round(quantile(s, TAIL_QUANTILE), 3)
                              for s in slices],
            "lateness_p99_ms": round(lateness_p99_ms(window), 3),
        }
        metrics = {
            "setup_s": statistics.median(self.setups),
            "p50_ms": statistics.median(quantile(s, 0.5) for s in slices),
            "tail_ms": statistics.median(
                quantile(s, TAIL_QUANTILE) for s in slices),
            "server_pss_mb": sum(result["pss"].values()),
        }
        samples = {
            "setup_s": len(self.setups), "p50_ms": len(latencies),
            "tail_ms": len(latencies),
            "server_pss_mb": len(result["pss"]),
        }
        return metrics, samples

    def replay(self, result):
        """The in-process per-layer replay (traced runs only)."""
        from replay import replay_batches, replay_requests, traffic_batches
        from spans import SpanRecorder

        out = {}
        request_spans = SpanRecorder()
        items = result["window"].items
        out["counts"] = replay_requests(self.refs, result["sample"],
                                        request_spans)
        out["request_spans"] = request_spans
        city = "melbourne"
        ref = self.refs[city].serve(live=True)
        batches = traffic_batches(ref.network, self.args.seed,
                                  1 + REPLAY_BATCHES)
        warm = [body for c, body in (self.requests.hot or items)
                if c == city][:24]
        batch_spans = SpanRecorder()
        out["batch_counts"] = replay_batches(ref, batches, warm, batch_spans)
        out["batch_spans"] = batch_spans
        return out

    @staticmethod
    def blocking_path(windows, proxy_spans, before, after):
        """Mean times (ms) along the blocking path of traced windows.

        The client span and the router proxy's span come from spans;
        the worker's ``query.total`` and ``stage.render`` from its
        ``/metrics`` histograms before and after the window.
        """
        from spans import SpanRecorder

        rec = SpanRecorder()
        client = {}
        for window in windows:
            for outcome in window.ok:
                rid = window.rid_base + outcome.index
                client[rid] = rec.add(rid, "client.request", outcome.sent,
                                      outcome.done)
        for rid, start, end in proxy_spans:
            parent = client.get(rid)
            if parent is not None:
                rec.add(rid, "shard.route", start, end, parent.sid)

        def delta_mean_ms(name):
            new = after["histograms"].get(name, {})
            old = before["histograms"].get(name, {})
            count = new.get("count", 0) - old.get("count", 0)
            total = new.get("total_s", 0.0) - old.get("total_s", 0.0)
            return 1000.0 * total / count if count else 0.0

        path = {
            "client": rec.mean_ms("client.request"),
            "frontend_self": rec.mean_ms("client.request", self_time=True),
            "route": rec.mean_ms("shard.route"),
            "query": delta_mean_ms("query.total"),
            "render": delta_mean_ms("stage.render"),
            "routes": rec.count("shard.route"),
        }
        path["pipe_wait"] = path["route"] - path["query"] - path["render"]
        return path

    def per_layer(self, result):
        window, untraced = result["window"], result["untraced"]
        loaded = self.blocking_path([window], result["proxy_spans"],
                                    result["before"], result["after"])
        serial = self.blocking_path(result["serial"], result["proxy_spans"],
                                    result["serial_before"],
                                    result["serial_after"])

        def delta_counter(name):
            return (result["after"]["counters"].get(name, 0)
                    - result["before"]["counters"].get(name, 0))

        hits, misses = delta_counter("cache.hits"), delta_counter("cache.misses")
        spans = result["request_spans"]
        counts = result["counts"]
        queries = max(1, counts["queries"])
        plan = {a: spans.mean_ms(f"plan.{a}") for a in
                ("Google Maps", "Plateaus", "Dissimilarity", "Penalty")}
        # The ledger: the front end's and the pipe's share of the serial
        # sample from spans and worker histograms, the worker's share
        # from the in-process replay of the same requests (a cache hit
        # on hot-mix, planning from scratch on cold-mix), over the
        # client mean.  Only a replay that explains the worker's time
        # gives 1.
        ledger_spans = result["ledger_spans"]
        replayed = (ledger_spans.mean_ms("served.query")
                    + ledger_spans.mean_ms("served.render"))
        ledger = ((serial["frontend_self"] + serial["pipe_wait"] + replayed)
                  / serial["client"] if serial["client"] else 0.0)
        self.diagnostics["ledger_ms"] = {
            **{k: round(v, 3) for k, v in serial.items()},
            "replayed_query": round(ledger_spans.mean_ms("served.query"), 3),
            "replayed_render": round(ledger_spans.mean_ms("served.render"), 3),
        }
        if abs(ledger - 1.0) > LEDGER_TOLERANCE:
            self.invalid.append(
                f"layer times account for {ledger:.3f} of the client mean, "
                f"outside 1 ± {LEDGER_TOLERANCE}")
        batch_spans = result["batch_spans"]
        batch = result["batch_counts"]
        nbatches = max(1, batch["batches"])
        generated = counts["candidates_generated"]
        tree_lookups = counts["tree_hits"] + counts["tree_misses"]
        ingest = [1000.0 * s.duration for s in batch_spans.spans
                  if s.name == "live.ingest"]
        workers = [v for k, v in result["pss"].items() if k != "frontend"]
        lateness = [1000.0 * x for x in window.lateness_s + untraced.lateness_s]
        metrics = {
            "frontend.self_ms": loaded["frontend_self"],
            "shard.route_ms": loaded["route"],
            "shard.pipe_wait_ms": loaded["pipe_wait"],
            "service.query_ms": loaded["query"],
            "service.shed": delta_counter("queries.shed"),
            "service.degraded": delta_counter("queries.degraded"),
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.invalidated_entries": batch["dropped"] / nbatches,
            "cache.full_flushes": batch["full_flushes"],
            "render.ms": spans.mean_ms("render") + spans.mean_ms("encode"),
            "render.bytes": counts["render_bytes"] / queries,
            "snap.ms": spans.mean_ms("snap"),
            "plan.google_maps_ms": plan["Google Maps"],
            "plan.plateaus_ms": plan["Plateaus"],
            "plan.dissimilarity_ms": plan["Dissimilarity"],
            "plan.penalty_ms": plan["Penalty"],
            "plan.accept_ratio": (counts["candidates_accepted"] / generated
                                  if generated else 0.0),
            "plan.dissimilarity_evals":
                counts["dissimilarity_evaluations"] / queries,
            "context.tree_build_ms": spans.mean_ms("context.trees"),
            "context.tree_hit_ratio": (counts["tree_hits"] / tree_lookups
                                       if tree_lookups else 0.0),
            "kernel.nodes_expanded": counts["nodes_expanded"] / queries,
            "kernel.edges_relaxed": counts["edges_relaxed"] / queries,
            "kernel.backend_dijkstra": counts["backend_dijkstra"] / queries,
            "kernel.backend_alt": counts["backend_alt"] / queries,
            "kernel.backend_ch": counts["backend_ch"] / queries,
            "customize.build_ms": batch_spans.mean_ms("customize.build"),
            "customize.cch_ms": batch_spans.mean_ms("customize.cch"),
            "customize.reweight_ms": batch_spans.mean_ms("customize.reweight"),
            "customize.dirty_edges": batch["dirty_edges"] / nbatches,
            "live.quarantined": batch["quarantined"],
            "live.ingest_p50_ms": quantile(ingest, 0.5),
            "live.ingest_p90_ms": quantile(ingest, 0.9),
            "setup.map_snapshot_s": sum(r.map_s for r in self.refs.values()),
            "setup.planners_s": sum(r.planners_s for r in self.refs.values()),
            "setup.live_controller_s": max(r.live_s for r in self.refs.values()),
            "setup.ready_s": self.deployment.info["ready_s"],
            "mem.worker_pss_mb": sum(workers) / len(workers),
            "client.lateness_ms": quantile(lateness, 0.99),
            "trace.overhead_ms": (quantile(window.latencies_ms(), 0.5)
                                  - quantile(untraced.latencies_ms(), 0.5)),
            "trace.ledger_ratio": ledger,
            "load.max_rps": result["max_rps"],
        }
        samples = {name: None for name in metrics}
        samples.update({
            "frontend.self_ms": loaded["routes"],
            "shard.route_ms": loaded["routes"],
            "trace.ledger_ratio": serial["routes"],
            "live.ingest_p50_ms": len(ingest),
            "live.ingest_p90_ms": len(ingest),
            "client.lateness_ms": len(lateness),
            "load.max_rps": sum(step.sent for step in result["steps"]),
        })
        return metrics, samples


def run_record(args):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=5, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: the program under test is not this checkout's "
              f"source ({repro.__file__})", file=sys.stderr)
        return 2
    try:
        config, declared = load_config()
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read configuration: {exc}", file=sys.stderr)
        return 2
    cfg = config["workloads"].get(args.workload)
    if cfg is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {sorted(config['workloads'])})", file=sys.stderr)
        return 2

    record = run_record(args)
    print(json.dumps({"run_record": record}))

    def on_alarm(_signum, _frame):
        raise RunTimeout(f"run exceeded {RUN_BUDGET_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_BUDGET_S)
    run = Run(args, cfg)
    try:
        result = run.run()
        if args.trace:
            metrics, samples = run.per_layer(result)
            names = declared["per_layer"]
        else:
            metrics, samples = run.end_to_end(result)
            names = declared["end_to_end"]
    except RunTimeout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        for ref in run.refs.values():
            ref.close()
        log = run.work / "server.log"
        if run.failures and log.exists():
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        shutil.rmtree(run.work, ignore_errors=True)

    missing = [m["name"] for m in names
               if not math.isfinite(metrics.get(m["name"], math.nan))]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 4
    for problem in run.failures[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    for problem in run.invalid:
        print(f"INVALID {problem}", file=sys.stderr)
    failed = len(run.failures)
    attempted = max(1, run.attempted)
    for m in names:
        count = samples.get(m["name"])
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{m['name']:28s} {metrics[m['name']]:14.4f} {m['unit']}{suffix}")
    print(f"{'error_rate':28s} {failed / attempted:14.4f} ratio  "
          f"(n={attempted})")
    print(json.dumps(run.diagnostics))
    correct = failed == 0 and not run.invalid
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``build-city``   generate a synthetic city and save it (CSV or JSON)
``snapshot``     build or inspect a binary network snapshot
``plan``         print the alternative routes for one query
``batch``        serve a file of queries through one shared-tree batch
``study``        run the user-study simulation and print the tables
``demo``         serve the web demonstration system
``figure``       regenerate Figure 1 or the Figure 4 case study
``stability``    seed-stability sweep of the reproduced conclusions
``city``         stream-build a city straight to an RPRN v3 snapshot
``experiment``   destination-perturbation / diversification suites
``log``          tail or summarise a captured query log
``replay``       re-drive a captured query log against a live service
``traffic``      generate or replay a live traffic-update log
``bench``        diff machine-readable BENCH_*.json results
``serve``        run the sharded multi-process route server
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.cities import CITY_BUILDERS
from repro.core.backend import SERVING_BACKENDS
from repro.exceptions import ReproError
from repro.observability.logs import LOG_LEVELS, configure_logging

_CITIES = sorted(CITY_BUILDERS)
_SIZES = ["small", "medium", "full"]


def _add_network_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--city", default="melbourne", choices=_CITIES)
    parser.add_argument("--size", default="small", choices=_SIZES)
    parser.add_argument("--seed", type=int, default=0)


def _build_network(args):
    return CITY_BUILDERS[args.city](size=args.size, seed=args.seed)


def _cmd_build_city(args) -> int:
    from repro.graph import save_network_csv, save_network_json

    network = _build_network(args)
    if args.format == "csv":
        save_network_csv(network, args.out)
        print(
            f"wrote {args.out}.nodes.csv / {args.out}.edges.csv "
            f"({network.num_nodes} nodes, {network.num_edges} edges)"
        )
    else:
        save_network_json(network, args.out)
        print(
            f"wrote {args.out} ({network.num_nodes} nodes, "
            f"{network.num_edges} edges)"
        )
    return 0


def _cmd_snapshot_build(args) -> int:
    from repro.graph.csr import save_snapshot

    network = _build_network(args)
    ch_note = ""
    if args.with_ch:
        from repro.core.ch import ensure_hierarchy

        hierarchy = ensure_hierarchy(network)
        ch_note = (
            f", CH hierarchy with {hierarchy.num_shortcuts} shortcuts"
        )
    save_snapshot(network, args.out)
    print(
        f"wrote {args.out} ({network.num_nodes} nodes, "
        f"{network.num_edges} edges{ch_note})"
    )
    return 0


def _cmd_snapshot_info(args) -> int:
    from repro.graph.csr import snapshot_info

    info = snapshot_info(args.path)
    for key in ("name", "version", "num_nodes", "num_edges", "file_bytes"):
        print(f"{key}: {info[key]}")
    for name, size in sorted(info["sections"].items()):
        print(f"section {name}: {size} bytes")
    return 0


def _cmd_plan(args) -> int:
    from repro.core.registry import (
        available_planners,
        make_planner,
        paper_planners,
    )

    network = _build_network(args)
    if args.approach == "all":
        selected = paper_planners(network, traffic_seed=args.seed)
        if args.backend != "auto":
            if args.backend == "ch":
                from repro.core.ch import ensure_hierarchy

                ensure_hierarchy(network)
            elif args.backend == "alt":
                from repro.core.alt import ensure_landmarks

                ensure_landmarks(network)
            for planner in selected.values():
                planner.backend = args.backend
    elif args.approach in available_planners():
        # Any registered planner — study approach or §2.4 baseline.
        selected = {
            args.approach: make_planner(
                args.approach, network, backend=args.backend
            )
        }
    else:
        print(
            f"unknown approach {args.approach!r}; registered: "
            f"{', '.join(available_planners())}",
            file=sys.stderr,
        )
        return 2
    display = network.default_weights()
    for name, planner in selected.items():
        route_set = planner.plan(args.source, args.target)
        minutes = route_set.travel_times_minutes(display)
        print(f"{name}:")
        for rank, (route, mins) in enumerate(
            zip(route_set, minutes), start=1
        ):
            print(
                f"  {rank}. {mins} min, {route.length_m / 1000:.1f} km, "
                f"{len(route.edge_ids)} segments"
            )
    return 0


def _load_batch_queries(path: str) -> List:
    """Parse the ``batch`` command's query file into RouteQueries.

    The file (or stdin, for ``-``) holds a JSON array whose items are
    either four-element ``[slat, slon, tlat, tlon]`` arrays or
    versioned :class:`~repro.serving.RouteRequest` objects
    (``{"version": 1, "source_lat": ..., ...}`` with optional
    ``"approaches"`` / ``"k"`` / ``"backend"``), the same flat shape
    ``POST /api/route`` takes.
    """
    from repro.exceptions import QueryError
    from repro.serving import RouteQuery, RouteRequest

    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise QueryError(f"bad batch file {path!r}: {exc}") from exc
    if not isinstance(payload, list) or not payload:
        raise QueryError(
            f"batch file {path!r} must hold a non-empty JSON array"
        )
    queries = []
    for index, item in enumerate(payload):
        if isinstance(item, (list, tuple)):
            if len(item) != 4:
                raise QueryError(
                    f"batch item {index} must have exactly four "
                    f"coordinates, got {len(item)}"
                )
            queries.append(RouteQuery(*[float(value) for value in item]))
        elif isinstance(item, dict):
            queries.append(RouteRequest.from_json(item).to_query())
        else:
            raise QueryError(
                f"batch item {index} must be a coordinate array or a "
                f"query object, got {type(item).__name__}"
            )
    return queries


def _cmd_batch(args) -> int:
    from repro.demo import QueryProcessor
    from repro.serving import RouteService

    queries = _load_batch_queries(args.queries)
    network = _build_network(args)
    processor = QueryProcessor(network, traffic_seed=args.seed)
    service = RouteService(
        processor,
        timeout_s=args.timeout,
        breaker_threshold=0,
        max_inflight=0,
    )
    batch = service.plan_many(queries)
    if args.json:
        # One versioned RouteResponse (or error marker) per line, in
        # input order — the machine-readable twin of the text report.
        for outcome in batch:
            if outcome.ok:
                line = service.respond(outcome.result).to_json()
            else:
                line = {"index": outcome.index, "error": outcome.error}
            print(json.dumps(line))
        return 0 if not batch.failed else 1
    for outcome in batch:
        query = outcome.query
        head = (
            f"[{outcome.index}] ({query.source_lat:.5f}, "
            f"{query.source_lon:.5f}) -> ({query.target_lat:.5f}, "
            f"{query.target_lon:.5f})"
        )
        if not outcome.ok:
            print(f"{head}: error: {outcome.error}")
            continue
        result = outcome.result
        labels = ", ".join(
            f"{label}:{len(routes)}"
            for label, routes in sorted(result.route_sets.items())
        )
        print(
            f"{head}: {result.fastest_minutes} min fastest, "
            f"routes {labels}"
        )
        for label, message in sorted(result.errors.items()):
            print(f"    degraded {label}: {message}")
    stats = batch.context_stats
    print(
        f"batch: {batch.served}/{len(batch)} served in "
        f"{batch.elapsed_s * 1000:.0f} ms; shared-tree hits "
        f"{stats['tree_hits']}, misses {stats['tree_misses']} "
        f"({stats['distinct_sources']} distinct sources, "
        f"{stats['distinct_targets']} distinct targets)"
    )
    return 0 if not batch.failed else 1


def _cmd_study(args) -> int:
    from repro.experiments import (
        anova_report,
        compare_to_paper,
        run_study,
        table1,
        table2,
        table3,
    )

    results = run_study(city=args.city, size=args.size, seed=args.seed)
    for table in (table1(results), table2(results), table3(results)):
        print(table.formatted())
        print()
    for category, outcome in anova_report(results).items():
        print(f"ANOVA {category}: {outcome.formatted()}")
    if args.city == "melbourne":
        print()
        print(compare_to_paper(results).formatted())
    return 0


class _TrafficFeeder:
    """Background thread driving a traffic log into a live controller.

    The demo's ``--traffic-stream`` mode: one batch ingested every
    ``interval_s`` seconds while the server runs, so the served weights
    churn like a real feed (quarantines and all) without an external
    process.
    """

    def __init__(self, controller, batches, interval_s: float) -> None:
        import threading

        self.controller = controller
        self.batches = batches
        self.interval_s = max(0.1, interval_s)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="traffic-feeder", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _run(self) -> None:
        for batch in self.batches:
            if self._stop.is_set():
                return
            self.controller.ingest(batch)
            if self._stop.wait(self.interval_s):
                return


def _cmd_demo(args) -> int:
    from repro.demo import DemoServer, QueryProcessor, ResponseStore
    from repro.observability.profiling import Profiler, format_profile
    from repro.observability.querylog import QueryLog
    from repro.serving import RouteService

    network = _build_network(args)
    processor = QueryProcessor(network, traffic_seed=args.seed)
    query_log = None
    if args.query_log:
        query_log = QueryLog(
            path=args.query_log,
            sample_rate=args.query_log_sample,
            max_records=args.query_log_max,
            meta={
                "city": args.city,
                "size": args.size,
                "seed": args.seed,
                "traffic_seed": args.seed,
            },
        )
    profiler = Profiler(enabled=args.profile)
    live = None
    feeder = None
    if args.traffic_stream:
        from repro.serving import LiveTrafficController
        from repro.traffic import read_update_log

        _header, traffic_batches = read_update_log(args.traffic_stream)
        live = LiveTrafficController(network)
        feeder = _TrafficFeeder(
            live, traffic_batches, interval_s=args.traffic_interval
        )
    service = RouteService(
        processor,
        cache_size=args.cache_size,
        timeout_s=args.timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        max_inflight=args.max_inflight,
        precompute_landmarks=args.precompute_landmarks,
        precompute_ch=args.precompute_ch,
        query_log=query_log,
        profiler=profiler,
        live=live,
    )
    server = DemoServer(
        processor,
        store=ResponseStore(args.db),
        port=args.port,
        service=service,
    )
    print(f"demo running at {server.url} — Ctrl-C to stop")
    print(f"serving metrics at {server.url}/metrics")
    print(f"health at {server.url}/healthz, traces at {server.url}/trace")
    if args.profile:
        print(f"per-phase profile at {server.url}/debug/profile")
    if query_log is not None:
        print(f"query log capturing to {args.query_log}")
    if feeder is not None:
        feeder.start()
        print(
            f"live traffic: feeding {len(feeder.batches)} batches from "
            f"{args.traffic_stream} every {args.traffic_interval:g}s"
        )
    server.serve_forever()
    if feeder is not None:
        feeder.stop()
        stats = live.stats_payload()
        print(
            f"traffic feed: applied {stats['applied']}, quarantined "
            f"{stats['quarantined']}, serving {stats['epoch_id']}"
        )
    if args.dump_traces:
        print(json.dumps(service.traces_payload(), indent=2))
    if args.profile:
        print(format_profile(service.profile_payload()))
    if query_log is not None:
        query_log.close()
        stats = query_log.stats_payload()
        print(
            f"query log: {stats['written']} records written to "
            f"{args.query_log} ({stats['sampled_out']} sampled out, "
            f"{stats['dropped']} dropped)"
        )
    return 0


def _cmd_log_tail(args) -> int:
    from repro.observability.querylog import tail_records

    for record in tail_records(args.path, args.n):
        print(json.dumps(record, sort_keys=True))
    return 0


def _cmd_log_stats(args) -> int:
    from repro.observability.querylog import log_stats, read_query_log

    header, records = read_query_log(args.path)
    payload = {"header": header, "stats": log_stats(records)}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_replay(args) -> int:
    from repro.demo import QueryProcessor
    from repro.observability.querylog import read_query_log
    from repro.observability.replay import format_replay_report, replay_log
    from repro.serving import RouteService

    header, records = read_query_log(args.path)
    if not records:
        print(f"error: {args.path} has no records", file=sys.stderr)
        return 1
    # The capture's header names the network it was recorded against;
    # CLI flags override, so a log can be replayed onto a what-if
    # topology too.
    meta = header.get("meta", {})
    city = args.city or meta.get("city", "melbourne")
    size = args.size or meta.get("size", "small")
    seed = args.seed if args.seed is not None else meta.get("seed", 0)
    traffic_seed = meta.get("traffic_seed", seed)
    network = CITY_BUILDERS[city](size=size, seed=seed)
    processor = QueryProcessor(network, traffic_seed=traffic_seed)
    with RouteService(
        processor,
        timeout_s=args.timeout,
        breaker_threshold=0,
        max_inflight=0,
    ) as service:
        report = replay_log(
            service,
            records,
            mode=args.mode,
            speed=args.speed,
            sample_rate=args.sample,
            seed=args.replay_seed,
            limit=args.limit,
        )
    print(f"replaying {args.path} against {city}/{size} (seed {seed})")
    print(format_replay_report(report))
    if args.json:
        print(json.dumps(report.to_payload(), sort_keys=True))
    return 0 if report.equivalent else 1


def _cmd_traffic_generate(args) -> int:
    from repro.traffic import (
        FaultInjectingUpdateSource,
        FaultPlan,
        TrafficModel,
        TrafficUpdateSource,
        write_update_log,
    )

    network = _build_network(args)
    model = TrafficModel(network, seed=args.seed)
    source = TrafficUpdateSource(
        model,
        start_hour=args.start_hour,
        end_hour=args.end_hour,
        tick_minutes=args.tick_minutes,
        seed=args.seed,
    )
    batches = iter(source)
    if args.fault_rate > 0:
        rate = args.fault_rate
        batches = iter(
            FaultInjectingUpdateSource(
                batches,
                FaultPlan(
                    p_corrupt=rate,
                    p_unknown_edge=rate / 2,
                    p_duplicate=rate / 2,
                    p_reorder=rate / 2,
                    p_gap=rate / 2,
                ),
                edge_count=network.num_edges,
                seed=args.fault_seed,
            )
        )
    count = write_update_log(
        args.out,
        batches,
        meta={
            "city": args.city,
            "size": args.size,
            "seed": args.seed,
            "fault_rate": args.fault_rate,
        },
    )
    print(
        f"wrote {count} traffic batches "
        f"({args.start_hour:g}:00-{args.end_hour:g}:00, every "
        f"{args.tick_minutes:g} min) to {args.out}"
    )
    return 0


def _cmd_traffic_replay(args) -> int:
    from repro.serving import LiveTrafficController
    from repro.traffic import read_update_log

    header, batches = read_update_log(args.path)
    meta = header.get("meta", {})
    city = args.city or meta.get("city", "melbourne")
    size = args.size or meta.get("size", "small")
    seed = args.seed if args.seed is not None else meta.get("seed", 0)
    network = CITY_BUILDERS[city](size=size, seed=seed)
    controller = LiveTrafficController(network)
    print(
        f"replaying {len(batches)} batches from {args.path} "
        f"against {city}/{size} (seed {seed})"
    )
    for batch in batches:
        outcome = controller.ingest(batch)
        if outcome.applied:
            line = (
                f"seq {outcome.seq}: applied -> {outcome.epoch_id} "
                f"({outcome.dirty_edges} dirty edges)"
            )
            if outcome.deferred_applied:
                line += (
                    f", drained deferred "
                    f"{list(outcome.deferred_applied)}"
                )
        else:
            line = f"seq {outcome.seq}: quarantined ({outcome.reason})"
        if args.verbose:
            print(line)
    stats = controller.stats_payload()
    print(
        f"applied {stats['applied']}, quarantined "
        f"{stats['quarantined']} "
        f"{dict(stats['quarantined_by_reason'])}, serving "
        f"{stats['epoch_id']} (feed seq {stats['feed_seq']}, "
        f"breaker {stats['feed_breaker']['state']})"
    )
    if args.json:
        print(json.dumps(stats, sort_keys=True))
    return 0


def _cmd_bench_diff(args) -> int:
    from repro.observability.benchjson import (
        diff_reports,
        format_diff,
        load_report,
    )

    diff = diff_reports(
        load_report(args.baseline),
        load_report(args.current),
        threshold=args.threshold,
    )
    print(format_diff(diff))
    return 0 if diff.ok else 1


def _cmd_figure(args) -> int:
    from repro.experiments import figure1, figure4

    network = _build_network(args)
    if args.number == 1:
        print(figure1(network, seed=args.seed).formatted())
    else:
        print(
            figure4(
                network, traffic_seed=args.seed, max_queries=args.queries
            ).formatted()
        )
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    generate_report(
        city=args.city, size=args.size, seed=args.seed,
        output_path=args.out,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_stability(args) -> int:
    from repro.experiments.robustness import seed_stability

    seeds = [int(s) for s in args.seeds.split(",")]
    report = seed_stability(seeds=seeds, city=args.city, size=args.size)
    print(report.formatted())
    return 0


def _cmd_city_build(args) -> int:
    from repro.cities import CITY_PROFILES, stream_build_city

    report = stream_build_city(
        CITY_PROFILES[args.city](),
        size=args.size,
        seed=args.seed,
        output=args.out,
        via_xml=not args.no_xml,
        xml_path=args.xml_spool,
    )
    print(report.formatted())
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment_stability(args) -> int:
    from repro.experiments import destination_perturbation

    report = destination_perturbation(
        city=args.city,
        size=args.size,
        seed=args.seed,
        num_queries=args.queries,
        radius_m=args.radius,
    )
    print(report.formatted())
    return 0


def _cmd_experiment_diversify(args) -> int:
    from repro.experiments import diversification_study

    report = diversification_study(
        city=args.city,
        size=args.size,
        seed=args.seed,
        num_queries=args.queries,
    )
    print(report.formatted())
    return 0


def _exit_on_sigterm(signum, _frame):
    """SIGTERM handler: unwind like an error, so cleanups still run."""
    raise SystemExit(128 + signum)


def _shard_specs(args, stack):
    """ShardSpecs from repeated ``--shard city[=snapshot]`` options.

    A bare city builds the network at ``--size/--seed`` and writes a
    fresh mmap-able v3 snapshot into a temp directory, so the command
    works without a prior ``repro snapshot build`` step.  The directory
    belongs to ``stack`` (a :class:`contextlib.ExitStack`), which
    removes it when it closes.
    """
    import tempfile
    from pathlib import Path

    from repro.graph.csr import save_snapshot
    from repro.serving.shard import ShardSpec

    specs = []
    tmp_dir = None
    for item in args.shard:
        city, _sep, path = item.partition("=")
        if city not in CITY_BUILDERS:
            raise ReproError(
                f"unknown city {city!r} (choose from {_CITIES})"
            )
        if not path:
            if tmp_dir is None:
                tmp_dir = Path(stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-shards-")
                ))
            path = str(tmp_dir / f"{city}-{args.size}-{args.seed}.rprn")
            network = CITY_BUILDERS[city](size=args.size, seed=args.seed)
            save_snapshot(network, path)
            # status to stderr: stdout carries only the "serving" line
            print(f"built snapshot {path}", file=sys.stderr)
        specs.append(
            ShardSpec(
                city=city,
                snapshot_path=path,
                size=args.size,
                seed=args.seed,
                live=args.live,
            )
        )
    return specs


def _cmd_serve(args) -> int:
    import contextlib
    import signal

    from repro.serving.frontend import ShardFrontend
    from repro.serving.shard import ShardRouter

    # Until the front end serves, SIGTERM unwinds the stack below, which
    # stops the workers and removes the snapshot directory.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with contextlib.ExitStack() as stack:
        router = stack.enter_context(ShardRouter(_shard_specs(args, stack)))
        frontend = ShardFrontend(router)
        host, port = frontend.bind(args.host, args.port)
        print(
            f"serving {len(router.cities)} shard(s) "
            f"({', '.join(router.cities)}) on http://{host}:{port}",
            flush=True,
        )
        # SIGTERM stops like Ctrl-C, so the workers are shut down too.
        signal.signal(signal.SIGTERM, lambda *_: frontend.shutdown())
        frontend.serve_forever()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Return the configured argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Comparing Alternative Route Planning "
            "Techniques' (ICDE 2022)"
        ),
    )
    parser.add_argument(
        "--log-level", choices=list(LOG_LEVELS), default="warning",
        help="repro logger verbosity (default: warning)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit one JSON object per log line (with trace/span ids)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build_city = commands.add_parser(
        "build-city", help="generate and save a synthetic city network"
    )
    _add_network_arguments(build_city)
    build_city.add_argument("--format", choices=["csv", "json"],
                            default="json")
    build_city.add_argument("--out", required=True)
    build_city.set_defaults(handler=_cmd_build_city)

    snapshot = commands.add_parser(
        "snapshot",
        help="build or inspect a binary network snapshot",
    )
    snapshot_commands = snapshot.add_subparsers(
        dest="snapshot_command", required=True
    )
    snapshot_build = snapshot_commands.add_parser(
        "build",
        help="generate a city and save it as a binary snapshot "
        "(loads orders of magnitude faster than CSV/JSON)",
    )
    _add_network_arguments(snapshot_build)
    snapshot_build.add_argument("--out", required=True)
    snapshot_build.add_argument(
        "--with-ch", action="store_true",
        help="contract the network and persist the hierarchy in the "
        "snapshot, so loading it serves CH queries without "
        "re-contracting",
    )
    snapshot_build.set_defaults(handler=_cmd_snapshot_build)
    snapshot_info = snapshot_commands.add_parser(
        "info", help="print a snapshot's header without loading it"
    )
    snapshot_info.add_argument("path")
    snapshot_info.set_defaults(handler=_cmd_snapshot_info)

    plan = commands.add_parser(
        "plan", help="plan alternative routes for one query"
    )
    _add_network_arguments(plan)
    plan.add_argument("source", type=int)
    plan.add_argument("target", type=int)
    plan.add_argument(
        "--approach",
        default="all",
        help='any registered planner name, or "all" for the four '
        "study approaches",
    )
    plan.add_argument(
        "--backend",
        default="auto",
        choices=list(SERVING_BACKENDS),
        help="point-to-point serving backend for the planners' "
        'searches ("auto" picks the fastest attached structure)',
    )
    plan.set_defaults(handler=_cmd_plan)

    batch = commands.add_parser(
        "batch",
        help="run a JSON file of queries as one shared-tree batch",
    )
    _add_network_arguments(batch)
    batch.add_argument(
        "--queries", required=True,
        help='JSON array of [slat, slon, tlat, tlon] items or webapp '
        'query objects ("-" reads stdin)',
    )
    batch.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-query planner deadline in seconds",
    )
    batch.add_argument(
        "--json", action="store_true",
        help="emit one versioned RouteResponse JSON object per query "
        "instead of the text report",
    )
    batch.set_defaults(handler=_cmd_batch)

    study = commands.add_parser(
        "study", help="run the 237-response user-study simulation"
    )
    _add_network_arguments(study)
    study.set_defaults(handler=_cmd_study)

    demo = commands.add_parser("demo", help="serve the web demo")
    _add_network_arguments(demo)
    demo.add_argument("--port", type=int, default=8080)
    demo.add_argument("--db", default=":memory:")
    demo.add_argument(
        "--cache-size", type=int, default=1024,
        help="LRU route-cache capacity (0 disables caching)",
    )
    demo.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-query planner deadline in seconds",
    )
    demo.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive planner failures that open a circuit "
        "(0 disables circuit breakers)",
    )
    demo.add_argument(
        "--breaker-cooldown", type=float, default=30.0,
        help="seconds an open circuit waits before a half-open probe",
    )
    demo.add_argument(
        "--max-inflight", type=int, default=64,
        help="concurrent queries admitted before shedding with 503 "
        "(0 disables admission control)",
    )
    demo.add_argument(
        "--precompute-landmarks", type=int, default=0,
        help="build the CSR view and this many ALT landmarks at "
        "startup for goal-directed single-route queries (0 disables)",
    )
    demo.add_argument(
        "--precompute-ch", action="store_true",
        help="contract the network at startup so CH-backed planners "
        "and backend=ch queries serve from the hierarchy immediately",
    )
    demo.add_argument(
        "--dump-traces", action="store_true",
        help="print the trace ring buffer as JSON on shutdown",
    )
    demo.add_argument(
        "--profile", action="store_true",
        help="enable the per-phase profiler (GET /debug/profile) and "
        "print the phase tree on shutdown",
    )
    demo.add_argument(
        "--query-log", default=None, metavar="PATH",
        help="capture served queries as JSONL to PATH (for repro "
        "log / repro replay)",
    )
    demo.add_argument(
        "--query-log-sample", type=float, default=1.0, metavar="RATE",
        help="fraction of queries captured, in (0, 1] (default: 1.0)",
    )
    demo.add_argument(
        "--query-log-max", type=int, default=10_000, metavar="N",
        help="stop capturing after N records (default: 10000)",
    )
    demo.add_argument(
        "--traffic-stream", default=None, metavar="PATH",
        help="feed a traffic-update JSONL log (see repro traffic "
        "generate) through the live epoch controller while serving",
    )
    demo.add_argument(
        "--traffic-interval", type=float, default=30.0, metavar="S",
        help="seconds between ingested traffic batches (default: 30)",
    )
    demo.set_defaults(handler=_cmd_demo)

    figure = commands.add_parser(
        "figure", help="regenerate Figure 1 or Figure 4"
    )
    _add_network_arguments(figure)
    figure.add_argument("number", type=int, choices=[1, 4])
    figure.add_argument("--queries", type=int, default=400)
    figure.set_defaults(handler=_cmd_figure)

    stability = commands.add_parser(
        "stability", help="seed-stability sweep of the conclusions"
    )
    _add_network_arguments(stability)
    stability.add_argument("--seeds", default="0,1,2")
    stability.set_defaults(handler=_cmd_stability)

    city = commands.add_parser(
        "city",
        help="build city networks (streaming path handles the "
        "million-node metro preset)",
    )
    city_commands = city.add_subparsers(dest="city_command", required=True)
    city_build = city_commands.add_parser(
        "build",
        help="build a city straight to an RPRN v3 snapshot",
    )
    city_build.add_argument("--city", default="melbourne", choices=_CITIES)
    city_build.add_argument(
        "--size", default="small", choices=_SIZES + ["metro"],
        help='"metro" is the ~1M-node stress preset',
    )
    city_build.add_argument("--seed", type=int, default=0)
    city_build.add_argument("--out", required=True)
    spool = city_build.add_mutually_exclusive_group()
    spool.add_argument(
        "--no-xml", action="store_true",
        help="skip the on-disk OSM XML spool leg "
        "(same bytes out, less disk and time)",
    )
    spool.add_argument(
        "--xml-spool", default=None,
        help="keep the intermediate OSM XML at this "
        "path instead of a deleted temp file",
    )
    city_build.set_defaults(handler=_cmd_city_build)

    experiment = commands.add_parser(
        "experiment",
        help="run the perturbation-stability / diversification suites",
    )
    experiment_commands = experiment.add_subparsers(
        dest="experiment_command", required=True
    )
    experiment_stability = experiment_commands.add_parser(
        "stability",
        help="destination-perturbation stability table (re-plan after "
        "the target moves ~100 m)",
    )
    _add_network_arguments(experiment_stability)
    experiment_stability.add_argument("--queries", type=int, default=20)
    experiment_stability.add_argument(
        "--radius", type=float, default=100.0,
        help="how far the destination moves, in metres",
    )
    experiment_stability.set_defaults(handler=_cmd_experiment_stability)
    experiment_diversify = experiment_commands.add_parser(
        "diversify",
        help="route-diversification table (coverage, redundancy, "
        "pairwise dissimilarity)",
    )
    _add_network_arguments(experiment_diversify)
    experiment_diversify.add_argument("--queries", type=int, default=20)
    experiment_diversify.set_defaults(handler=_cmd_experiment_diversify)

    report = commands.add_parser(
        "report", help="run everything and write a markdown report"
    )
    _add_network_arguments(report)
    report.add_argument("--out", default="REPORT.md")
    report.set_defaults(handler=_cmd_report)

    log = commands.add_parser(
        "log", help="tail or summarise a captured query log"
    )
    log_commands = log.add_subparsers(dest="log_command", required=True)
    log_tail = log_commands.add_parser(
        "tail", help="print the last N records as JSON lines"
    )
    log_tail.add_argument("path")
    log_tail.add_argument("-n", type=int, default=10,
                          help="records to print (default: 10)")
    log_tail.set_defaults(handler=_cmd_log_tail)
    log_stats = log_commands.add_parser(
        "stats",
        help="summarise outcomes, cache hits and latency quantiles",
    )
    log_stats.add_argument("path")
    log_stats.set_defaults(handler=_cmd_log_stats)

    replay = commands.add_parser(
        "replay",
        help="re-drive a captured query log against a live service "
        "and compare the routes served",
    )
    replay.add_argument("path", help="query log captured by the demo")
    # Network flags default to None so the capture header's metadata
    # wins unless explicitly overridden.
    replay.add_argument("--city", default=None, choices=_CITIES)
    replay.add_argument("--size", default=None, choices=_SIZES)
    replay.add_argument("--seed", type=int, default=None)
    replay.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed replays back-to-back; open honours the captured "
        "inter-arrival gaps (default: closed)",
    )
    replay.add_argument(
        "--speed", type=float, default=1.0,
        help="open-loop speed multiplier (2.0 = twice capture speed)",
    )
    replay.add_argument(
        "--sample", type=float, default=1.0,
        help="fraction of records replayed, in (0, 1] (default: 1.0)",
    )
    replay.add_argument(
        "--replay-seed", type=int, default=0,
        help="PRNG seed for --sample record selection",
    )
    replay.add_argument(
        "--limit", type=int, default=None,
        help="replay at most this many records",
    )
    replay.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-query planner deadline in seconds",
    )
    replay.add_argument(
        "--json", action="store_true",
        help="also print the full report as one JSON object",
    )
    replay.set_defaults(handler=_cmd_replay)

    traffic = commands.add_parser(
        "traffic",
        help="generate or replay a live traffic-update log",
    )
    traffic_commands = traffic.add_subparsers(
        dest="traffic_command", required=True
    )
    traffic_generate = traffic_commands.add_parser(
        "generate",
        help="write a rush-hour traffic-update JSONL log for a city",
    )
    _add_network_arguments(traffic_generate)
    traffic_generate.add_argument("--out", required=True)
    traffic_generate.add_argument(
        "--start-hour", type=float, default=7.0,
        help="first batch hour (default: 7.0)",
    )
    traffic_generate.add_argument(
        "--end-hour", type=float, default=18.0,
        help="last batch hour (default: 18.0)",
    )
    traffic_generate.add_argument(
        "--tick-minutes", type=float, default=30.0,
        help="minutes between batches (default: 30)",
    )
    traffic_generate.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="per-batch probability of injected feed faults "
        "(corruption, duplicates, reordering, gaps; default: 0)",
    )
    traffic_generate.add_argument(
        "--fault-seed", type=int, default=0,
        help="PRNG seed for the injected faults",
    )
    traffic_generate.set_defaults(handler=_cmd_traffic_generate)
    traffic_replay = traffic_commands.add_parser(
        "replay",
        help="ingest a traffic-update log through the live controller "
        "and report applied/quarantined outcomes",
    )
    traffic_replay.add_argument("path", help="JSONL traffic-update log")
    traffic_replay.add_argument("--city", default=None, choices=_CITIES)
    traffic_replay.add_argument("--size", default=None, choices=_SIZES)
    traffic_replay.add_argument("--seed", type=int, default=None)
    traffic_replay.add_argument(
        "--verbose", action="store_true",
        help="print one line per ingested batch",
    )
    traffic_replay.add_argument(
        "--json", action="store_true",
        help="also print the controller stats as one JSON object",
    )
    traffic_replay.set_defaults(handler=_cmd_traffic_replay)

    bench = commands.add_parser(
        "bench", help="work with machine-readable BENCH_*.json results"
    )
    bench_commands = bench.add_subparsers(
        dest="bench_command", required=True
    )
    bench_diff = bench_commands.add_parser(
        "diff",
        help="compare a BENCH_*.json run against a baseline and fail "
        "on tail-latency (or other gated-metric) regressions",
    )
    bench_diff.add_argument("baseline")
    bench_diff.add_argument("current")
    bench_diff.add_argument(
        "--threshold", type=float, default=0.20,
        help="default allowed relative change for gated metrics "
        "without their own threshold (default: 0.20)",
    )
    bench_diff.set_defaults(handler=_cmd_bench_diff)

    serve = commands.add_parser(
        "serve",
        help="serve the paper's four approaches from per-city worker "
        "processes over mmap'd snapshots (the sharded deployment)",
    )
    serve.add_argument(
        "--shard", action="append", required=True,
        metavar="CITY[=SNAPSHOT]",
        help="one worker shard; repeat per city.  A bare city name "
        "builds the network at --size/--seed and snapshots it into "
        "a temp directory first",
    )
    serve.add_argument("--size", default="small", choices=_SIZES)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--live", action="store_true",
        help="attach a live-traffic controller in every worker",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8081)
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_format=args.log_json)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

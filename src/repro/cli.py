"""Command-line interface for the EO-ML workflow system.

The accessibility goal of Section V-A — "democratizes access,
accommodating users of varying levels of expertise" — starts with a CLI:

    repro run workflow.yaml            # the real five-stage pipeline
    repro simulate --granules 40       # the simulated ACE twin (Figs. 6-7)
    repro figures fig4 table1 ...      # regenerate evaluation artifacts
    repro catalog MOD02 2022-01-01     # query the archive model
    repro info                         # system inventory

Multi-facility mode (the control plane of :mod:`repro.server`):

    repro serve --db runs.db           # central run service
    repro submit workflow.yaml --server URL   # register a run
    repro status [RUN] --server URL    # watch runs / one run's units
    repro agent --server URL --site S  # facility worker loop

Exit codes: 0 success, 1 failure reported by the work itself (including
a server that answered with an error), 2 usage/connectivity problems.

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.util.units import format_bytes

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-facility EO-ML workflow (SC'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the real five-stage workflow from a YAML config")
    run.add_argument("config", help="workflow YAML file")
    run.add_argument("--no-provenance", action="store_true", help="skip lineage recording")
    run.add_argument(
        "--resume",
        action="store_true",
        help="replay the run journal and skip work whose artifacts still verify "
             "(crash-consistent restart of an interrupted run)",
    )
    run.add_argument(
        "--chaos",
        metavar="PLAN",
        help="YAML file with a fault-injection plan (a chaos: section or bare "
             "enabled/seed/faults mapping); overrides the config's chaos section",
    )
    run.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="run download/preprocess/inference across N worker processes "
             "(overrides runtime.workers; 1 = single-process)",
    )
    run.add_argument(
        "--chaos-seed",
        type=int,
        metavar="N",
        help="re-seed the active chaos plan (requires a plan via config or --chaos)",
    )

    simulate = sub.add_parser("simulate", help="run the simulated multi-facility twin")
    simulate.add_argument("--granules", type=int, default=24, help="granule sets to process")
    simulate.add_argument("--seed", type=int, default=0)

    figures = sub.add_parser("figures", help="regenerate paper figures/tables")
    figures.add_argument(
        "targets",
        nargs="+",
        choices=["fig3", "fig4", "fig5", "fig6", "fig7", "table1", "headline"],
        help="which artifacts to regenerate",
    )
    figures.add_argument("--repeats", type=int, default=3)

    catalog = sub.add_parser("catalog", help="query an instrument's archive model")
    catalog.add_argument("product", help="e.g. MOD02, MOD03, MOD06")
    catalog.add_argument("date", help="ISO date, e.g. 2022-01-01")
    catalog.add_argument("--limit", type=int, default=10)
    catalog.add_argument("--instrument", default="modis",
                         help="registered instrument whose archive to query "
                              "(default: %(default)s)")

    sub.add_parser("info", help="print the system inventory")

    serve = sub.add_parser("serve", help="run the multi-facility control plane")
    serve.add_argument("--db", default="control_plane.db",
                       help="SQLite file for the run store (default: %(default)s)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)

    submit = sub.add_parser("submit", help="submit a workflow to the control plane")
    submit.add_argument("config", help="workflow YAML file")
    submit.add_argument("--server", required=True, metavar="URL",
                        help="control-plane base URL, e.g. http://host:8642")
    submit.add_argument("--name", default="", help="run name (default: config name)")

    status = sub.add_parser("status", help="show control-plane runs")
    status.add_argument("run", nargs="?", help="run id for per-unit detail")
    status.add_argument("--server", required=True, metavar="URL")
    status.add_argument("--events", action="store_true",
                        help="also print the run's event log (needs a run id)")

    agent = sub.add_parser("agent", help="run a site agent against the control plane")
    agent.add_argument("--server", required=True, metavar="URL")
    agent.add_argument("--name", default="", help="agent name (default: host-pid)")
    agent.add_argument("--site", default="", help="facility label, e.g. alcf, nersc")
    agent.add_argument("--ttl", type=float, default=15.0, help="lease TTL seconds")
    agent.add_argument("--poll-interval", type=float, default=1.0,
                       help="seconds between empty polls")
    agent.add_argument("--max-units", type=int, default=None,
                       help="exit after executing N units")
    agent.add_argument("--drain", action="store_true",
                       help="exit once several consecutive polls find no work")
    agent.add_argument("--outbox", default=None, metavar="PATH",
                       help="durable spool for results that could not be "
                            "delivered during a partition (JSONL)")
    agent.add_argument("--reconnect-limit", type=int, default=3,
                       help="reconnect probes before giving up when the "
                            "server is unreachable (negative: probe forever)")

    cache = sub.add_parser(
        "cache", help="inspect or garbage-collect the content-addressed cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser("stats", help="object counts, bytes, counters")
    cache_stats.add_argument("--dir", default=None, metavar="DIR",
                             help="cache directory (default: from --config)")
    cache_stats.add_argument("--config", default=None, metavar="YAML",
                             help="workflow config whose cache: section names the dir")
    cache_gc = cache_sub.add_parser(
        "gc", help="evict least-recently-used unpinned objects down to a budget"
    )
    cache_gc.add_argument("--dir", default=None, metavar="DIR",
                          help="cache directory (default: from --config)")
    cache_gc.add_argument("--config", default=None, metavar="YAML",
                          help="workflow config whose cache: section names the dir "
                               "and budget")
    cache_gc.add_argument("--budget-bytes", type=int, default=None, metavar="N",
                          help="evict down to N bytes (overrides the config budget)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.chaos import load_plan
    from repro.core import EOMLWorkflow, load_config

    with open(args.config) as handle:
        config = load_config(handle.read())
    if args.chaos:
        with open(args.chaos) as handle:
            config = dataclasses.replace(config, chaos=load_plan(handle.read()))
    if args.chaos_seed is not None:
        if config.chaos is None:
            print("--chaos-seed needs a chaos plan (config chaos: section or --chaos)",
                  file=sys.stderr)
            return 2
        config = dataclasses.replace(config, chaos=config.chaos.with_seed(args.chaos_seed))
    if args.workers is not None:
        if args.workers < 1:
            print("--workers must be at least 1", file=sys.stderr)
            return 2
        config = dataclasses.replace(config, runtime_workers=args.workers)
    print(f"running workflow {config.name!r} "
          f"({config.start_date} .. {config.end_date}, products {config.products})")
    if config.chaos is not None and config.chaos.active:
        print(f"chaos:      seed {config.chaos.seed}, "
              f"{len(config.chaos.faults)} fault spec(s) over stages "
              f"{list(config.chaos.stages())}")
    if args.resume:
        print(f"resume:     replaying journal at {config.journal_dir}")
    if config.runtime_workers > 1:
        print(f"scale-out:  {config.runtime_workers} worker process(es)")
    report = EOMLWorkflow(config).run(
        provenance=not args.no_provenance, resume=args.resume
    )
    print(f"download:   {report.download.files} files "
          f"({format_bytes(report.download.nbytes)}), "
          f"{report.download.skipped} skipped, {report.download.resumed} resumed, "
          f"{report.download.retried} retried")
    print(f"preprocess: {report.total_tiles} tiles "
          f"({report.preprocess.throughput_tiles_per_s:.1f} tiles/s)")
    print(f"inference:  {report.labelled_tiles} tiles labelled")
    if report.shipment:
        print(f"shipment:   {len(report.shipment.moved)} files delivered")
    if report.provenance:
        summary = report.provenance.summary()
        print(f"provenance: {summary['entities']} entities, "
              f"{summary['activities']} activities recorded")
    if report.chaos is not None:
        print(f"chaos:      {report.chaos['faults_injected']} faults injected "
              f"{report.chaos['by_kind']}, {report.quarantined} item(s) quarantined")
    if report.journal is not None:
        print(f"journal:    {report.resumed_items} resumed, "
              f"{report.replayed_items} replayed, "
              f"{report.manifest_mismatches} manifest mismatch(es)")
    if report.scaleout.get("enabled"):
        print(f"scale-out:  {report.scaleout['units_executed']} units over "
              f"{report.scaleout['workers_launched']} worker(s), "
              f"{report.scaleout['requeues']} requeue(s)")
    if report.cache.get("enabled"):
        print(f"cache:      {report.cache['hits']} hit(s) / "
              f"{report.cache['misses']} miss(es), "
              f"{report.cache['stores']} stored "
              f"({report.cache['linked_stores']} linked), "
              f"{format_bytes(int(report.cache['bytes_saved']))} saved "
              f"({report.cache['download_cached']} download / "
              f"{report.cache['preprocess_cached']} preprocess / "
              f"{report.cache['inference_cached']} inference / "
              f"{report.cache['shipment_deduped']} shipment short-circuits)")
    if report.errors:
        print(f"errors: {report.errors}", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis import automation_timeline, latency_breakdown, render_table
    from repro.core import SimWorkflowParams

    params = SimWorkflowParams(num_granule_sets=args.granules, seed=args.seed)
    timeline = automation_timeline(params)
    print(timeline.render())
    breakdown = latency_breakdown(params)
    print(render_table(
        ["stage", "seconds"],
        [(name, round(seconds, 3)) for name, seconds in breakdown.rows()],
        title="latency breakdown",
    ))
    print(f"makespan {breakdown.makespan_s:.1f}s for {args.granules} granule sets")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro import analysis

    repeats = args.repeats
    for target in args.targets:
        print(f"=== {target} ===")
        if target == "fig3":
            points = analysis.download_sweep(iterations=repeats)
            rows = [
                (f"{p.batch_bytes / 1e9:.1f}GB", p.workers, round(p.mean_speed_mb_s, 2),
                 round(p.std_speed_mb_s, 2))
                for p in points
            ]
            print(analysis.render_table(["batch", "workers", "MB/s", "std"], rows))
        elif target == "fig4":
            sw = analysis.strong_scaling_workers(repeats=repeats)
            print(analysis.render_comparison(
                "workers", sw.throughput_map(), analysis.TABLE1_STRONG_WORKERS))
            sn = analysis.strong_scaling_nodes(repeats=repeats)
            print(analysis.render_comparison(
                "nodes", sn.throughput_map(), analysis.TABLE1_STRONG_NODES))
        elif target == "fig5":
            ww = analysis.weak_scaling_workers(repeats=repeats)
            print(analysis.render_comparison(
                "workers", ww.throughput_map(), analysis.TABLE1_WEAK_WORKERS))
            wn = analysis.weak_scaling_nodes(repeats=repeats)
            print(analysis.render_comparison(
                "nodes", wn.throughput_map(), analysis.TABLE1_WEAK_NODES))
        elif target == "fig6":
            from repro.core import SimWorkflowParams

            print(analysis.automation_timeline(SimWorkflowParams(num_granule_sets=40)).render())
        elif target == "fig7":
            breakdown = analysis.latency_breakdown()
            print(analysis.render_table(
                ["stage", "seconds"],
                [(name, round(seconds, 3)) for name, seconds in breakdown.rows()],
            ))
        elif target == "table1":
            sw = analysis.strong_scaling_workers(repeats=repeats)
            sn = analysis.strong_scaling_nodes(repeats=repeats)
            print(analysis.render_comparison(
                "workers", sw.throughput_map(), analysis.TABLE1_STRONG_WORKERS))
            print(analysis.render_comparison(
                "nodes", sn.throughput_map(), analysis.TABLE1_STRONG_NODES))
        elif target == "headline":
            point = analysis.headline_run(repeats=repeats)
            print(f"{point.tiles} tiles in {point.mean_seconds:.1f}s "
                  f"+/- {point.std_seconds:.1f} (paper: 44s)")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    import datetime as dt

    from repro.instruments import get_instrument

    try:
        instrument = get_instrument(args.instrument)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    archive = instrument.build_archive(seed=0)
    refs = archive.query(args.product, dt.date.fromisoformat(args.date),
                         max_per_day=args.limit)
    for ref in refs:
        print(f"{ref.filename}  {format_bytes(ref.nbytes)}")
    total = archive.query(args.product, dt.date.fromisoformat(args.date))
    print(f"-- day total: {len(total)} granules, "
          f"{format_bytes(archive.total_bytes(total))}")
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} — "
          "'Scalable Multi-Facility Workflows for AI Applications in Climate Research' "
          "(SC 2024) reproduction")
    print(repro.__doc__)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import serve

    serve(args.db, host=args.host, port=args.port,
          announce=lambda url: print(f"control plane listening on {url} (db {args.db})"))
    return 0


def _client(args: argparse.Namespace):
    from repro.server import ControlPlaneClient

    return ControlPlaneClient(args.server)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.server import RequestFailed, ServerUnavailable
    from repro.util.yamlish import loads

    with open(args.config) as handle:
        raw = loads(handle.read())
    if not isinstance(raw, dict):
        print(f"{args.config}: expected a YAML mapping", file=sys.stderr)
        return 2
    try:
        run = _client(args).submit(raw, name=args.name)
    except ServerUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RequestFailed as exc:
        print(f"submission rejected: {exc.message}", file=sys.stderr)
        return 1
    print(f"submitted {run.run_id} ({run.name}): "
          f"{len(run.units)} unit(s) {[u.name for u in run.units]}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.server import RequestFailed, ServerUnavailable

    client = _client(args)
    try:
        if args.run is None:
            runs = client.runs()
            if not runs:
                print("no runs")
                return 0
            for run in runs:
                suffix = f"  error: {run.error}" if run.error else ""
                print(f"{run.run_id}  {run.status:<10} {run.name}{suffix}")
            return 0
        run = client.run(args.run)
        print(f"{run.run_id}  {run.status}  {run.name}")
        for unit in run.units:
            owner = f"  @{unit.agent}" if unit.agent else ""
            note = f"  error: {unit.error}" if unit.error else ""
            print(f"  {unit.name:<12} {unit.status:<10} "
                  f"attempts={unit.attempts} requeues={unit.requeues}{owner}{note}")
        if args.events:
            for event in client.events(args.run):
                print(f"  [{event['seq']}] {event['kind']}: {event['detail']}")
        return 0 if run is None or run.status != "failed" else 1
    except ServerUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RequestFailed as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 1


def _cmd_agent(args: argparse.Namespace) -> int:
    import os
    import socket

    from repro.server import ControlPlaneClient, ServerUnavailable, SiteAgent

    name = args.name or f"{socket.gethostname()}-{os.getpid()}"
    client = ControlPlaneClient(args.server)
    agent = SiteAgent(
        client, name=name, site=args.site, ttl=args.ttl,
        poll_interval=args.poll_interval, outbox=args.outbox,
        reconnect_limit=None if args.reconnect_limit < 0 else args.reconnect_limit,
    )
    print(f"agent {name} (site {args.site or '-'}) polling {args.server}")
    try:
        stats = agent.run(
            max_units=args.max_units,
            idle_exit_after=5 if args.drain else None,
        )
    except ServerUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        stats = agent.stats
    print(f"agent {name}: {stats.completed} completed, {stats.failed} failed, "
          f"{stats.lost_leases} lost lease(s), {stats.idle_polls} idle poll(s)")
    if stats.disconnects:
        print(f"agent {name}: {stats.disconnects} disconnect(s), "
              f"{stats.reconnect_attempts} reconnect attempt(s), "
              f"{stats.outbox_replayed} spooled record(s) replayed")
    return 0 if stats.failed == 0 else 1


def _cache_store(args: argparse.Namespace):
    """Resolve the CAS directory (and budget) the subcommand targets."""
    from repro.cas import CASStore

    cache_dir = args.dir
    budget = getattr(args, "budget_bytes", None)
    if args.config is not None:
        from repro.core import load_config

        with open(args.config) as handle:
            config = load_config(handle.read())
        cache_dir = cache_dir or config.cache_dir
        if budget is None:
            budget = config.cache_budget_bytes
    if cache_dir is None:
        print("cache: need --dir or --config to locate the store", file=sys.stderr)
        return None
    return CASStore(cache_dir, budget_bytes=budget)


def _cmd_cache(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    if args.cache_command == "stats":
        stats = store.stats()
        print(f"cache root: {stats['root']}")
        print(f"objects:    {stats['objects']} "
              f"({format_bytes(stats['total_bytes'])}), "
              f"{stats['pinned_objects']} pinned")
        budget = stats["budget_bytes"]
        print(f"budget:     "
              f"{format_bytes(budget) if budget is not None else 'unbounded'}")
        for key in ("hits", "misses", "stores", "linked_stores", "dedup_stores",
                    "corrupt_evictions", "evicted_objects"):
            print(f"{key + ':':<12}{stats[key]}")
        return 0
    # gc
    sweep = store.gc()
    budget = sweep["budget_bytes"]
    print(f"evicted {sweep['evicted']} object(s), "
          f"freed {format_bytes(sweep['evicted_bytes'])} "
          f"(scanned {sweep['scanned']}, now {format_bytes(sweep['total_bytes'])}, "
          f"budget {format_bytes(budget) if budget is not None else 'unbounded'})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "simulate": _cmd_simulate,
        "figures": _cmd_figures,
        "catalog": _cmd_catalog,
        "info": _cmd_info,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "agent": _cmd_agent,
        "cache": _cmd_cache,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())

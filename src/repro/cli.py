"""Command-line entry point: experiments, sweeps, trace tooling, the daemon.

::

    repro-fpga run fig2                     # Figure 2 execution-order traces
    repro-fpga run sec51 --trace-out x.ctb  # ... capturing a columnar trace
    repro-fpga run all                      # everything, in paper order
    repro-fpga sweep scalability --workers 4   # §4 grid, sharded
    repro-fpga sweep sec51 --repeats 5 --serial --trace-out s.ctb
    repro-fpga trace info x.ctb             # segments/schemas of a bundle
    repro-fpga trace query x.ctb --schema latency.sample --agg latency --by site
    repro-fpga trace export x.ctb --format chrome -o x.json   # Perfetto
    repro-fpga serve --port 7711 --workers 4   # emulation-as-a-service daemon
    repro-fpga run fig2 --server 127.0.0.1:7711 --trace-out x.ctb

``sweep`` prints only the deterministic merged report on stdout (timing
and worker telemetry go to stderr), so a ``--workers N`` run can be
diffed byte-for-byte against a ``--serial`` run — CI does exactly that.
The ``--server`` forms of ``run`` and ``trace info/query`` are thin
clients over the daemon; their stdout (and any ``--trace-out`` bundle)
is byte-identical to the in-process forms because both sides share one
codepath (:mod:`repro.experiments.registry` and the ``format_trace_*``
helpers below).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.experiments import fig2, table1
from repro.experiments import registry as _registry

#: Back-compat aliases; the registry is the single source of truth.
_EXPERIMENTS = _registry.EXPERIMENTS
_TRACEABLE = _registry.TRACEABLE
_PAPER_ORDER = _registry.PAPER_ORDER


def _add_run_parser(sub) -> None:
    run = sub.add_parser(
        "run", help="run one experiment (or 'all', in paper order)",
        description="Run the paper's experiments on the simulated fabric.")
    run.add_argument("experiment", choices=sorted(_EXPERIMENTS) + ["all"],
                     help="which experiment to run")
    run.add_argument("--n", type=int, default=fig2.PAPER_N,
                     help="fig2: outer extent / work-items (default: paper's 50)")
    run.add_argument("--num", type=int, default=fig2.PAPER_NUM,
                     help="fig2: inner trip count (default: paper's 100)")
    run.add_argument("--depth", type=int, default=table1.TABLE1_DEPTH,
                     help="table1: trace buffer DEPTH")
    run.add_argument("--trace-out", metavar="FILE.ctb", default=None,
                     help="capture a columnar trace bundle; appends when the "
                          f"file exists (traceable: {', '.join(_TRACEABLE)})")
    run.add_argument("--trace-flush-rows", type=int, default=0, metavar="N",
                     help="with --trace-out: seal and flush the capture to "
                          "disk every N published rows (default 0 = one "
                          "flush at close)")
    run.add_argument("--server", metavar="ADDR", default=None,
                     help="run on an emulation daemon ('host:port' or "
                          "'unix:/path') instead of in-process; output and "
                          "--trace-out bundles are byte-identical")


def _add_sweep_parser(sub) -> None:
    sweep = sub.add_parser(
        "sweep", help="run an experiment grid, sharded across processes",
        description="Shard an experiment sweep (the §4 scalability grid, "
                    "Table 1 configurations, or repeated dynamic "
                    "experiments) across worker processes. Merged results "
                    "are deterministic: stdout is byte-identical between "
                    "--workers N and --serial runs.")
    sweep.add_argument("family",
                       choices=("scalability", "table1", "fig2", "sec51",
                                "sec52", "all"),
                       help="which sweep to run ('all' = every family)")
    mode = sweep.add_mutually_exclusive_group()
    mode.add_argument("--workers", type=int, default=None, metavar="N",
                      help="worker process count (default: one per CPU)")
    mode.add_argument("--serial", action="store_true",
                      help="run every point in-process (the reference "
                           "semantics; use when debugging a point or on "
                           "single-core hosts)")
    sweep.add_argument("--repeats", type=int, default=3, metavar="R",
                       help="repeat count for fig2/sec51/sec52 sweeps "
                            "(default 3)")
    sweep.add_argument("--depth", type=int, default=None,
                       help="table1: trace buffer DEPTH override")
    sweep.add_argument("--simulate", action="store_true",
                       help="scalability: also run the instrumented matmul "
                            "simulation at every grid point")
    sweep.add_argument("--counts", action="append", type=int, default=None,
                       metavar="N",
                       help="scalability: instance count(s) to sweep "
                            "(repeatable; default: the paper's grid)")
    sweep.add_argument("--depths", action="append", type=int, default=None,
                       metavar="D",
                       help="scalability: trace DEPTH(s) to sweep "
                            "(repeatable; default: the paper's grid)")
    sweep.add_argument("--trace-out", metavar="FILE.ctb", default=None,
                       help="merge every point's trace records into one "
                            "columnar bundle (appends when the file exists)")


def _add_trace_parser(sub) -> None:
    trace = sub.add_parser(
        "trace", help="inspect/query/export stored .ctb trace bundles",
        description="Tools over columnar trace bundles written by "
                    "'run --trace-out'.")
    tsub = trace.add_subparsers(dest="trace_command", required=True,
                                metavar="{info,query,export}")

    info = tsub.add_parser("info", help="summarize segments and schemas")
    info.add_argument("store", help="path to a .ctb bundle")
    info.add_argument("--server", metavar="ADDR", default=None,
                      help="render on an emulation daemon (the path is "
                           "read server-side); output is byte-identical")

    query = tsub.add_parser("query", help="filter/aggregate stored records")
    query.add_argument("store", help="path to a .ctb bundle")
    query.add_argument("--server", metavar="ADDR", default=None,
                       help="filter server-side on an emulation daemon; "
                            "output is byte-identical")
    query.add_argument("--schema", default=None, help="restrict to one schema")
    query.add_argument("--kernel", action="append", default=None,
                       help="restrict to kernel(s) (repeatable)")
    query.add_argument("--cu", action="append", type=int, default=None,
                       help="restrict to compute unit(s) (repeatable)")
    query.add_argument("--site", action="append", default=None,
                       help="restrict to site(s) (repeatable)")
    query.add_argument("--since", type=int, default=None,
                       help="keep records with ts >= SINCE")
    query.add_argument("--until", type=int, default=None,
                       help="keep records with ts < UNTIL")
    query.add_argument("--limit", type=int, default=20,
                       help="max rows to print (default 20; 0 = no limit)")
    query.add_argument("--agg", metavar="FIELD", default=None,
                       help="aggregate FIELD (count/min/max/mean) instead "
                            "of printing rows")
    query.add_argument("--by", metavar="COLUMN", default=None,
                       help="group the aggregation by COLUMN (e.g. site)")

    export = tsub.add_parser("export", help="export to chrome/csv/json")
    export.add_argument("store", help="path to a .ctb bundle")
    export.add_argument("--format", choices=("chrome", "csv", "json"),
                        default="chrome", help="output format "
                        "(chrome = Perfetto-loadable trace-event JSON)")
    export.add_argument("--schema", default=None,
                        help="schema to export (required for csv)")
    export.add_argument("-o", "--out", default=None,
                        help="output file (default: stdout)")


def _add_serve_parser(sub) -> None:
    serve = sub.add_parser(
        "serve", help="start the persistent emulation daemon",
        description="Serve emulation-as-a-service: concurrent client "
                    "sessions over newline-delimited JSON-RPC, with a "
                    "shared program cache, a warm worker pool, and "
                    "streamed .ctb trace delivery. Runs until a client "
                    "sends server.shutdown (or Ctrl-C).")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="TCP port (default 0 = ephemeral; the bound "
                            "address is printed on startup)")
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="serve on a unix-domain socket instead of TCP")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes for job execution (default: "
                            "one per CPU; 0 = in-process execution)")
    serve.add_argument("--session-queue-limit", type=int, default=8,
                       metavar="N",
                       help="per-session job-queue bound before 'busy' "
                            "backpressure (default 8)")
    serve.add_argument("--max-sessions", type=int, default=64, metavar="N",
                       help="concurrent session limit (default 64)")
    serve.add_argument("--trace-flush-rows", type=int, default=0,
                       metavar="N",
                       help="split streamed trace batches into segments of "
                            "at most N rows (default 0 = one segment per "
                            "schema per batch; sessions may override)")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and docs)."""
    import repro

    parser = argparse.ArgumentParser(
        prog="repro-fpga",
        description="Reproduce the DAC'17 OpenCL-for-FPGA profiling/debugging "
                    "experiments on the simulated AOCL fabric.")
    parser.add_argument("--version", action="version",
                        version=f"repro-fpga {repro.__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{run,sweep,trace,serve}")
    _add_run_parser(sub)
    _add_sweep_parser(sub)
    _add_trace_parser(sub)
    _add_serve_parser(sub)
    return parser


def _experiment_params(args) -> Dict[str, Any]:
    """Map run-subcommand flags to registry experiment params."""
    return {"n": args.n, "num": args.num, "depth": args.depth}


def _run_experiments(args) -> int:
    if args.server:
        return _run_experiments_remote(args)
    hub = None
    sink = None
    if args.trace_out:
        from repro.trace.columnar import ColumnarSink
        from repro.trace.hub import TraceHub
        hub = TraceHub(flush_rows=args.trace_flush_rows)
        sink = hub.attach(ColumnarSink(args.trace_out, hub.registry))
    names = _PAPER_ORDER if args.experiment == "all" else (args.experiment,)
    params = _experiment_params(args)
    for name in names:
        this_hub = hub if name in _TRACEABLE else None
        if args.trace_out and name not in _TRACEABLE and len(names) == 1:
            print(f"note: {name} does not publish trace records; "
                  f"{args.trace_out} will be empty", file=sys.stderr)
        print(_registry.run_experiment(name, hub=this_hub, **params))
        print()
    if hub is not None:
        hub.close()
        print(f"trace bundle: {args.trace_out} "
              f"({sink.rows_written} records, "
              f"{len(hub.counts)} schemas)")
    return 0


def _run_experiments_remote(args) -> int:
    """``run --server``: the same experiments, executed on a daemon.

    stdout (and any ``--trace-out`` bundle) is byte-identical to the
    in-process form: the server renders through the same registry, and
    the streamed trace segments are regrouped exactly the way a local
    ``ColumnarSink`` would have flushed them.
    """
    from repro.server.client import Client
    from repro.server.protocol import ServerError

    names = _PAPER_ORDER if args.experiment == "all" else (args.experiment,)
    params = _experiment_params(args)
    try:
        with Client(args.server) as client:
            client.open_session()
            if args.trace_out:
                client.subscribe()
            for name in names:
                traceable = name in _TRACEABLE
                if args.trace_out and not traceable and len(names) == 1:
                    print(f"note: {name} does not publish trace records; "
                          f"{args.trace_out} will be empty", file=sys.stderr)
                result = client.run_experiment(
                    name, params=params,
                    trace=bool(args.trace_out) and traceable)
                print(result["rendered"])
                print()
            if args.trace_out:
                rows = client.save_trace(args.trace_out)
                schemas = {segment.schema for segment in client.segments}
                print(f"trace bundle: {args.trace_out} "
                      f"({rows} records, "
                      f"{len(schemas)} schemas)")
            client.close_session()
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_sweep_cmd(args) -> int:
    from repro.sweep import SweepError, WorkerPool, families, run_sweep

    names = (families.FAMILY_NAMES if args.family == "all"
             else (args.family,))
    serial = args.serial
    pool = None if serial else WorkerPool(args.workers)
    status = 0
    try:
        for name in names:
            try:
                spec = families.build_spec(
                    name, repeats=args.repeats, depth=args.depth,
                    simulate=args.simulate, counts=args.counts,
                    depths=args.depths)
                outcome = run_sweep(
                    spec, serial=serial, pool=pool,
                    trace_path=args.trace_out,
                    log=lambda message: print(message, file=sys.stderr))
                print(families.render_outcome(outcome))
                print()
            except SweepError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 1
    finally:
        if pool is not None:
            pool.close()
    if args.trace_out and status == 0:
        print(f"trace bundle: {args.trace_out}", file=sys.stderr)
    return status


def format_trace_info(store, path: str) -> List[str]:
    """Render ``trace info`` output lines (shared with the server)."""
    lines = [f"{path}: {len(store.segments)} segment(s), "
             f"{store.total_rows()} record(s)",
             f"{'schema':28s} {'rows':>8s} {'ts range':>20s} {'strings':>8s}"]
    for segment in store.segments:
        span = (f"{segment.min_ts}..{segment.max_ts}"
                if segment.rows else "-")
        lines.append(f"{segment.schema:28s} {segment.rows:8d} {span:>20s} "
                     f"{len(segment.strings):8d}")
    return lines


def format_trace_query(store, opts: Dict[str, Any]) -> List[str]:
    """Render ``trace query`` output lines (shared with the server).

    ``opts`` mirrors the query flags: schema, kernel, cu, site, since,
    until, limit, agg, by. Bad aggregations raise ``ReproError`` — the
    caller maps that to exit status 2 / a ``bad_request`` error.
    """
    from repro.trace.query import TraceQuery

    def as_list(value):
        return value if isinstance(value, (list, tuple)) else [value]

    query = TraceQuery(store)
    if opts.get("schema"):
        query.schema(opts["schema"])
    if opts.get("kernel"):
        query.kernel(*as_list(opts["kernel"]))
    if opts.get("cu"):
        query.cu(*as_list(opts["cu"]))
    if opts.get("site"):
        query.site(*as_list(opts["site"]))
    if opts.get("since") is not None or opts.get("until") is not None:
        query.between(opts.get("since"), opts.get("until"))
    if opts.get("agg"):
        result = query.aggregate(opts["agg"], by=opts.get("by"))
        if not isinstance(result, dict):
            result = {"(all)": result}
        lines = [f"{'group':36s} {'count':>8s} {'min':>10s} "
                 f"{'max':>10s} {'mean':>12s}"]
        for key in sorted(result, key=str):
            agg = result[key]
            lines.append(f"{str(key):36s} {agg.count:8d} {agg.minimum:10d} "
                         f"{agg.maximum:10d} {agg.mean:12.2f}")
        return lines
    if opts.get("limit"):
        query.limit(opts["limit"])
    rows = query.rows()
    return [str(row) for row in rows] + [f"({len(rows)} row(s))"]


def _trace_query_opts(args) -> Dict[str, Any]:
    return {"schema": args.schema, "kernel": args.kernel, "cu": args.cu,
            "site": args.site, "since": args.since, "until": args.until,
            "limit": args.limit, "agg": args.agg, "by": args.by}


def _run_trace_remote(args) -> int:
    """``trace info/query --server``: render on the daemon, print lines."""
    from repro.server.client import Client
    from repro.server.protocol import ServerError

    if args.trace_command == "info":
        method, params = "trace.store_info", {"path": args.store}
    else:
        params = {"path": args.store, **_trace_query_opts(args)}
        method = "trace.store_query"
    try:
        with Client(args.server) as client:
            result = client.call(method, params)
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result["lines"]:
        print(line)
    return 0


def _run_trace_tool(args) -> int:
    from repro.errors import ReproError

    if getattr(args, "server", None):
        return _run_trace_remote(args)

    from repro.trace.columnar import ColumnarStore

    try:
        store = ColumnarStore.load(args.store)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace_command == "info":
        for line in format_trace_info(store, args.store):
            print(line)
        return 0

    if args.trace_command == "query":
        try:
            lines = format_trace_query(store, _trace_query_opts(args))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in lines:
            print(line)
        return 0

    # export
    from repro.trace.export import (
        store_to_csv,
        store_to_json,
        to_chrome_json,
        validate_chrome_events,
    )
    try:
        if args.format == "chrome":
            import json as _json
            document = to_chrome_json(store)
            problems = validate_chrome_events(
                _json.loads(document)["traceEvents"])
            if problems:
                print("error: invalid chrome trace produced:",
                      file=sys.stderr)
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
                return 2
        elif args.format == "csv":
            if not args.schema:
                print("error: csv export needs --schema", file=sys.stderr)
                return 2
            document = store_to_csv(store, args.schema)
        else:
            document = store_to_json(store, schema=args.schema)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
            if not document.endswith("\n"):
                handle.write("\n")
        print(f"wrote {args.out}")
    else:
        print(document)
    return 0


def _run_serve(args) -> int:
    import asyncio

    from repro.server.daemon import ReproServer, ServerConfig

    config = ServerConfig(
        host=args.host, port=args.port, socket_path=args.socket,
        workers=args.workers,
        session_queue_limit=args.session_queue_limit,
        max_sessions=args.max_sessions,
        trace_flush_rows=args.trace_flush_rows)
    server = ReproServer(config)
    server.warm()

    async def _serve() -> None:
        address = await server.start()
        workers = 0 if server.pool is None else server.pool.workers
        mode = "in-process" if server.pool is None else f"{workers} worker(s)"
        print(f"repro-fpga server listening on {address} ({mode})",
              flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: dispatch run/sweep/trace/serve subcommands."""
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        return _run_sweep_cmd(args)
    if args.command == "trace":
        return _run_trace_tool(args)
    if args.command == "serve":
        return _run_serve(args)
    return _run_experiments(args)


if __name__ == "__main__":
    sys.exit(main())

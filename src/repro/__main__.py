"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``analyze FILE`` — run any registered analysis on a source file
  (Scheme or Featherweight Java, per the analysis's language) and
  print its reports.
* ``analyses`` — list every registered analysis with its policy
  parameters (context abstraction, environment representation,
  language), straight from the analysis registry.
* ``run FILE`` — run a program on the concrete machines.
* ``fj FILE`` — parse and analyze a Featherweight Java file.
* ``tables`` — regenerate the paper's tables (delegates to the
  benchmark harnesses).
* ``bench`` — run the benchmark matrix in parallel and write a
  ``BENCH_*.json`` report.
* ``serve`` — run the persistent analysis server (async NDJSON front
  door over TCP or a Unix socket, consistent-hash sharded worker
  fleet, result cache).
* ``stress`` — drive hundreds of concurrent clients against the
  service and report throughput, latency percentiles and loss.
* ``submit`` — send one job to a running server and render the same
  reports as ``analyze``.

Examples::

    python -m repro analyze examples/prog.scm --analysis mcfa -n 1
    python -m repro analyze prog.scm --analysis kcfa -n 2 --simplify
    python -m repro analyze prog.java --analysis fj-mcfa -n 1
    python -m repro analyses --language fj
    python -m repro fj prog.java --entry-method caller -k 1
    python -m repro tables --table worstcase --timeout 5
    python -m repro bench --quick
    python -m repro bench --copies 4 --contexts 0,1,2 --jobs 8
    python -m repro serve --port 7557 --cache &
    python -m repro submit prog.scm --analysis kcfa -n 1 --port 7557
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.registry import registry
from repro.errors import ReproError, UsageError
from repro.service.jobs import REPORT_CHOICES

#: Every registered analysis name (Scheme and FJ), sourced from the
#: registry.  Unknown names are rejected by ``JobSpec.validate`` (a
#: :class:`~repro.errors.UsageError`, exit 2), not by argparse;
#: this tuple exists for the docs-drift and consistency tests.
ANALYSES = registry().names()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="k-CFA / m-CFA control-flow analyses "
                    "(PLDI 2010 paradox paper reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="analyze a source file (Scheme or FJ)")
    analyze.add_argument("file", help="source path ('-' stdin)")
    analyze.add_argument("--analysis", default="mcfa", metavar="NAME",
                         help="a registered analysis name "
                              "(see `repro analyses`; default mcfa)")
    analyze.add_argument("-n", "--context", type=int, default=1,
                         help="the k or m (default 1)")
    analyze.add_argument("--simplify", action="store_true",
                         help="shrink-simplify the CPS term first")
    analyze.add_argument("--timeout", type=float, default=None,
                         help="wall-clock budget in seconds")
    analyze.add_argument("--report",
                         choices=list(REPORT_CHOICES),
                         default="all")
    analyze.add_argument("--cache", action="store_true",
                         help="reuse/persist results in the default "
                              "cache dir (~/.cache/repro)")
    analyze.add_argument("--cache-dir", default=None,
                         help="cache directory (implies --cache)")

    analyses_cmd = commands.add_parser(
        "analyses",
        help="list every registered analysis and its policy")
    analyses_cmd.add_argument("--language",
                              choices=["all", "scheme", "fj"],
                              default="all",
                              help="restrict to one language")
    analyses_cmd.add_argument("--names", action="store_true",
                              help="print bare names only "
                                   "(for scripting)")

    run = commands.add_parser(
        "run", help="run a Scheme program on the concrete machines")
    run.add_argument("file")
    run.add_argument("--machine", choices=["shared", "flat", "direct"],
                     default="shared")

    fj = commands.add_parser(
        "fj", help="analyze a Featherweight Java file")
    fj.add_argument("file")
    fj.add_argument("-k", type=int, default=1)
    fj.add_argument("--entry-class", default="Main")
    fj.add_argument("--entry-method", default="main")
    fj.add_argument("--tick", choices=["invocation", "statement"],
                    default="invocation")
    fj.add_argument("--gc", action="store_true",
                    help="enable abstract garbage collection")
    fj.add_argument("--typecheck", action="store_true",
                    help="run the FJ type checker before analyzing")

    tables = commands.add_parser(
        "tables", help="regenerate the paper's tables")
    tables.add_argument("--table",
                        choices=["worstcase", "precision", "envs",
                                 "identity", "fj-vs-fun", "ablation"],
                        default="identity")
    tables.add_argument("--timeout", type=float, default=10.0)

    bench = commands.add_parser(
        "bench", help="run the benchmark matrix in parallel")
    bench.add_argument("--programs", default=None,
                       help="comma-separated program names "
                            "(default: whole suite + FJ examples)")
    bench.add_argument("--analyses", default=None,
                       help="comma-separated analyses, or 'all' for "
                            "every registered analysis (default: "
                            "kcfa,mcfa,poly,zero,fj-kcfa,fj-poly,"
                            "fj-mcfa,fj-hybrid)")
    bench.add_argument("--contexts", default="0,1",
                       help="comma-separated k/m values (default 0,1)")
    bench.add_argument("--obj-depth", default=None,
                       help="comma-separated receiver-chain depths "
                            "for the hybrid ladder (fj-hybrid only; "
                            "adds an obj-depth axis to the matrix)")
    bench.add_argument("--copies", type=int, default=1,
                       help="scale factor for Scheme programs")
    bench.add_argument("--timeout", type=float, default=30.0,
                       help="per-task wall-clock budget in seconds")
    bench.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: all cores)")
    bench.add_argument("--serial", action="store_true",
                       help="run in-process (the parallel baseline)")
    bench.add_argument("--quick", action="store_true",
                       help="small smoke matrix (CI)")
    bench.add_argument("--cache", action="store_true",
                       help="reuse/persist ok rows in the default "
                            "cache dir (~/.cache/repro)")
    bench.add_argument("--cache-dir", default=None,
                       help="cache directory (implies --cache)")
    bench.add_argument("--output", default=None,
                       help="report path ('-' to skip writing; "
                            "default BENCH_<timestamp>.json)")

    serve = commands.add_parser(
        "serve", help="run the persistent analysis server")
    serve.add_argument("--socket", default=None,
                       help="listen on this Unix socket path "
                            "instead of TCP")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7557,
                       help="TCP port; 0 binds a free port "
                            "(default 7557)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: all cores)")
    serve.add_argument("--max-queue", type=int, default=8,
                       help="per-worker admission queue depth; a "
                            "submission whose shard is this deep "
                            "gets a busy event instead of queueing "
                            "(default 8)")
    serve.add_argument("--job-timeout", type=float, default=60.0,
                       help="default per-job wall-clock budget in "
                            "seconds for requests that set none "
                            "(default 60)")
    serve.add_argument("--cache", action="store_true",
                       help="reuse/persist results in the default "
                            "cache dir (~/.cache/repro)")
    serve.add_argument("--cache-dir", default=None,
                       help="cache directory (implies --cache)")
    serve.add_argument("--ready-file", default=None,
                       help="write the bound endpoint (host:port or "
                            "socket path) here once listening")

    stress = commands.add_parser(
        "stress",
        help="drive concurrent clients against the analysis service")
    stress.add_argument("--clients", type=int, default=200,
                        help="concurrent client connections "
                             "(default 200)")
    stress.add_argument("--requests", type=int, default=2,
                        help="sequential jobs per client; round 2+ "
                             "hits warm workers (default 2)")
    stress.add_argument("--distinct", type=int, default=8,
                        help="distinct programs in the request mix "
                             "(default 8)")
    stress.add_argument("--workers", type=int, default=4,
                        help="fleet size for the in-process server "
                             "(ignored with --endpoint; default 4)")
    stress.add_argument("--max-queue", type=int, default=None,
                        help="per-worker admission queue depth for "
                             "the in-process server (default: the "
                             "server default)")
    stress.add_argument("--endpoint", default=None,
                        help="drive a running server (host:port or "
                             "socket path) instead of starting one")
    stress.add_argument("--analysis", default="mcfa", metavar="NAME",
                        help="analysis for every job (default mcfa)")
    stress.add_argument("-n", "--context", type=int, default=1,
                        help="the k or m (default 1)")
    stress.add_argument("--timeout", type=float, default=30.0,
                        help="per-job wall-clock budget in seconds "
                             "(default 30)")
    stress.add_argument("--deadline", type=float, default=300.0,
                        help="overall campaign deadline in seconds; "
                             "unfinished jobs count as dropped "
                             "(default 300)")
    stress.add_argument("--no-verify", action="store_true",
                        help="skip byte-comparing responses against "
                             "local runs of the same programs")
    stress.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSON "
                             "('-' for stdout)")

    submit = commands.add_parser(
        "submit", help="submit a job to a running analysis server")
    submit.add_argument("file", nargs="?", default=None,
                        help="source path ('-' stdin); "
                             "optional with --server-stats or "
                             "--shutdown")
    submit.add_argument("--analysis", default="mcfa", metavar="NAME",
                        help="a registered analysis name "
                             "(see `repro analyses`; default mcfa)")
    submit.add_argument("-n", "--context", type=int, default=1,
                        help="the k or m (default 1)")
    submit.add_argument("--simplify", action="store_true",
                        help="shrink-simplify the CPS term first")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock budget in seconds "
                             "(default: the server's --job-timeout)")
    submit.add_argument("--report",
                        choices=list(REPORT_CHOICES), default="all")
    submit.add_argument("--socket", default=None,
                        help="connect to this Unix socket path "
                             "instead of TCP")
    submit.add_argument("--host", default="127.0.0.1",
                        help="server TCP address (default 127.0.0.1)")
    submit.add_argument("--port", type=int, default=7557,
                        help="server TCP port (default 7557)")
    submit.add_argument("--session", action="store_true",
                        help="open an analysis session on the "
                             "worker (prints its id on stderr for "
                             "`repro edit` / `repro query`)")
    submit.add_argument("--list-analyses", action="store_true",
                        help="print the server's registered analyses "
                             "(the `analyses` op) and exit")
    submit.add_argument("--server-stats", action="store_true",
                        help="print the server's scheduler/cache "
                             "statistics and exit")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the server to shut down cleanly "
                             "and exit")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress streamed progress events on "
                             "stderr")

    def _connection_arguments(subparser):
        subparser.add_argument("--socket", default=None,
                               help="connect to this Unix socket "
                                    "path instead of TCP")
        subparser.add_argument("--host", default="127.0.0.1",
                               help="server TCP address "
                                    "(default 127.0.0.1)")
        subparser.add_argument("--port", type=int, default=7557,
                               help="server TCP port (default 7557)")
        subparser.add_argument("--quiet", action="store_true",
                               help="suppress streamed progress "
                                    "events on stderr")

    edit = commands.add_parser(
        "edit", help="re-analyze a session from scratch against "
                     "an edited source")
    edit.add_argument("session",
                      help="the session id a `submit --session` "
                           "printed")
    edit.add_argument("file", help="edited source path ('-' stdin)")
    edit.add_argument("--timeout", type=float, default=None,
                      help="wall-clock budget in seconds (default: "
                           "the server's --job-timeout)")
    _connection_arguments(edit)

    query = commands.add_parser(
        "query", help="client-analysis queries: `query SESSION KIND "
                      "[TARGET]` asks a session; `query FILE "
                      "--kind KIND` runs a batch pass locally, no "
                      "session or server needed")
    query.add_argument("session", metavar="SESSION|FILE",
                       help="a session id a `submit --session` "
                            "printed, or (with --kind) a source "
                            "path ('-' stdin)")
    query.add_argument("kind", nargs="?", default=None,
                       help="session form: what to ask (value-of, "
                            "call-sites-of, escaping, call-graph, "
                            "mono, inlining)")
    query.add_argument("target", nargs="?", default=None,
                       help="a variable name (value-of) or a lambda "
                            "label (call-sites-of, escaping)")
    query.add_argument("--kind", dest="batch_kind", default=None,
                       metavar="KIND",
                       help="batch mode: run this client pass over "
                            "a fresh analysis of FILE (call-graph, "
                            "escaping, mono, devirt, inlining, "
                            "value-of) and print its JSON answer")
    query.add_argument("--target", dest="batch_target", default=None,
                       metavar="TARGET",
                       help="batch mode: the query target (value-of "
                            "only)")
    query.add_argument("--analysis", default="mcfa", metavar="NAME",
                       help="batch mode: a registered analysis name "
                            "(default mcfa)")
    query.add_argument("-n", "--context", type=int, default=1,
                       help="batch mode: the k or m (default 1)")
    query.add_argument("--simplify", action="store_true",
                       help="batch mode: shrink-simplify the CPS "
                            "term first")
    query.add_argument("--timeout", type=float, default=None,
                       help="batch mode: wall-clock budget in "
                            "seconds")
    query.add_argument("--dot", default=None, metavar="PATH",
                       help="batch mode: also write the answer's "
                            "DOT export (call-graph only) to PATH")
    query.add_argument("--cache", action="store_true",
                       help="batch mode: reuse/persist results in "
                            "the default cache dir (~/.cache/repro)")
    query.add_argument("--cache-dir", default=None,
                       help="batch mode: cache directory (implies "
                            "--cache)")
    _connection_arguments(query)
    return parser


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _validate_analysis_args(args) -> None:
    """Fail fast on option errors, before any source is read — a
    typo must not block on stdin or be masked by a file error."""
    from repro.service.jobs import validate_job_options
    validate_job_options(args.analysis, args.context,
                         simplify=args.simplify, report=args.report)


def _cmd_analyze(args) -> int:
    from repro.cache import open_cache
    from repro.service.jobs import (
        JobSpec, cache_payload, job_cache_key, run_job,
    )
    _validate_analysis_args(args)
    spec = JobSpec(source=_read_source(args.file),
                   analysis=args.analysis, context=args.context,
                   simplify=args.simplify, report=args.report,
                   timeout=args.timeout).validate()
    cache = open_cache(args.cache_dir, args.cache or args.cache_dir)
    key = job_cache_key(spec) if cache is not None else None
    if cache is not None:
        payload = cache.get(key)
        if payload is not None:
            sys.stdout.write(payload["stdout"])
            print("(cached result)", file=sys.stderr)
            return 0
    row = run_job(spec)
    if row["status"] != "ok":
        print(f"error: {row['error']}", file=sys.stderr)
        return 1
    sys.stdout.write(row["stdout"])
    if cache is not None:
        cache.put(key, cache_payload(row))
    return 0


def _cmd_analyses(args) -> int:
    from repro.analysis.registry import registry_listing
    from repro.reporting import analyses_report
    language = None if args.language == "all" else args.language
    rows = registry_listing(language)
    if args.names:
        for row in rows:
            print(row["name"])
        return 0
    print(analyses_report(rows, language, len(registry()),
                          "repro.analysis.registry"))
    return 0


def _cmd_run(args) -> int:
    source = _read_source(args.file)
    from repro.scheme.values import scheme_repr
    if args.machine == "direct":
        from repro.scheme.interp import run_source
        print(scheme_repr(run_source(source)))
        return 0
    from repro.scheme.cps_transform import compile_program
    program = compile_program(source)
    if args.machine == "shared":
        from repro.concrete import run_shared
        result = run_shared(program)
    else:
        from repro.concrete import run_flat
        result = run_flat(program)
    print(scheme_repr(result.value))
    print(f"({result.steps} steps)", file=sys.stderr)
    return 0


def _cmd_fj(args) -> int:
    from repro.fj import analyze_fj_kcfa, parse_fj
    from repro.fj.gc import analyze_fj_kcfa_gc
    from repro.reporting import fj_report
    if args.k < 0:
        raise UsageError(f"-k must be non-negative, got {args.k}")
    program = parse_fj(_read_source(args.file),
                       entry_class=args.entry_class,
                       entry_method=args.entry_method)
    if args.typecheck:
        from repro.fj.typecheck import typecheck_program
        report = typecheck_program(program)
        print(report.summary())
        for error in report.errors:
            print(f"  error: {error}")
        for warning in report.warnings:
            print(f"  warning: {warning}")
        if not report:
            return 1
    if args.gc:
        result = analyze_fj_kcfa_gc(program, args.k,
                                    tick_policy=args.tick)
    else:
        result = analyze_fj_kcfa(program, args.k,
                                 tick_policy=args.tick)
    print(fj_report(result))
    return 0


def _cmd_bench(args) -> int:
    from repro.benchsuite.runner import (
        DEFAULT_ANALYSES, QUICK_ANALYSES, QUICK_CONTEXTS,
        QUICK_PROGRAMS, build_matrix, default_programs,
        default_report_path, run_batch,
    )
    from repro.cache import open_cache
    from repro.reporting import bench_report_table
    obj_depths = None
    if args.obj_depth is not None:
        try:
            obj_depths = [int(value)
                          for value in args.obj_depth.split(",")]
        except ValueError:
            raise UsageError(
                f"--obj-depth must be comma-separated integers, got "
                f"{args.obj_depth!r}") from None
        if any(depth < 0 for depth in obj_depths):
            raise UsageError(
                f"--obj-depth values must be non-negative, got "
                f"{args.obj_depth!r}")
    if args.quick:
        overridden = [flag for flag, value in
                      [("--programs", args.programs),
                       ("--analyses", args.analyses),
                       ("--contexts", args.contexts != "0,1"),
                       ("--copies", args.copies != 1),
                       ("--obj-depth", args.obj_depth)] if value]
        if overridden:
            print(f"warning: --quick uses a fixed smoke matrix; "
                  f"ignoring {', '.join(overridden)}",
                  file=sys.stderr)
        programs = list(QUICK_PROGRAMS)
        analyses = list(QUICK_ANALYSES)
        contexts = list(QUICK_CONTEXTS)
        copies = 1
        obj_depths = None
        timeout = min(args.timeout, 10.0)
    else:
        programs = (args.programs.split(",") if args.programs
                    else default_programs())
        analyses = (args.analyses.split(",") if args.analyses
                    else list(DEFAULT_ANALYSES))
        if "all" in analyses:
            # Expand 'all' wherever it appears in the list, from the
            # live registry (not an import-time snapshot) so
            # runtime-registered analyses are included; build_matrix
            # dedups while preserving order.
            analyses = [name
                        for item in analyses
                        for name in (registry().names()
                                     if item == "all" else (item,))]
        try:
            contexts = [int(value)
                        for value in args.contexts.split(",")]
        except ValueError:
            raise UsageError(
                f"--contexts must be comma-separated integers, got "
                f"{args.contexts!r}") from None
        if any(context < 0 for context in contexts):
            raise UsageError(
                f"--contexts values must be non-negative, got "
                f"{args.contexts!r}")
        copies = args.copies
        timeout = args.timeout
    tasks = build_matrix(programs, analyses, contexts, copies=copies,
                         timeout=timeout, obj_depths=obj_depths)
    if not tasks:
        print("error: empty benchmark matrix", file=sys.stderr)
        return 1
    cache = open_cache(args.cache_dir, args.cache or args.cache_dir)
    obj_axis = f" x {len(obj_depths)} obj depths" \
        if obj_depths is not None and len(obj_depths) > 1 else ""
    print(f"bench: {len(tasks)} tasks "
          f"({len(programs)} programs x {len(analyses)} analyses "
          f"x {len(contexts)} contexts{obj_axis})",
          file=sys.stderr)
    report = run_batch(
        tasks, jobs=args.jobs, serial=args.serial, cache=cache,
        progress=lambda line: print(line, file=sys.stderr, flush=True))
    if cache is not None:
        print(f"cache: {cache.stats.hits} hits, "
              f"{cache.stats.misses} misses, "
              f"{cache.stats.writes} writes "
              f"({cache.directory})", file=sys.stderr)
    print(bench_report_table(report))
    output = args.output
    if output != "-":
        path = report.write(output or default_report_path())
        print(f"report written to {path}", file=sys.stderr)
    return 0 if all(row["status"] != "error"
                    for row in report.rows) else 1


def _cmd_serve(args) -> int:
    from repro.cache import open_cache
    from repro.service.server import AnalysisServer
    cache = open_cache(args.cache_dir, args.cache or args.cache_dir)
    if args.max_queue < 1:
        raise UsageError(f"--max-queue must be a positive integer, "
                         f"got {args.max_queue}")
    codegen_dir = None
    if args.cache_dir:
        from pathlib import Path
        codegen_dir = str(Path(args.cache_dir) / "codegen")
    server = AnalysisServer(
        host=args.host, port=args.port, socket_path=args.socket,
        workers=args.workers, cache=cache,
        default_timeout=args.job_timeout,
        codegen_dir=codegen_dir,
        max_queue=args.max_queue).start()
    print(f"serving on {server.endpoint} "
          f"({server.workers} workers"
          + (f", cache {cache.directory}" if cache is not None
             else ", cache disabled") + ")",
          file=sys.stderr, flush=True)
    if args.ready_file:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            handle.write(server.endpoint + "\n")
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print("server stopped", file=sys.stderr)
    return 0


def _cmd_stress(args) -> int:
    import json

    from repro.reporting import stress_report
    from repro.service.jobs import validate_job_options
    from repro.service.stress import run_stress
    validate_job_options(args.analysis, args.context)
    if args.clients < 1 or args.requests < 1 or args.distinct < 1:
        raise UsageError("--clients, --requests and --distinct must "
                         "all be positive integers")
    if args.max_queue is not None and args.max_queue < 1:
        raise UsageError(f"--max-queue must be a positive integer, "
                         f"got {args.max_queue}")
    report = run_stress(
        endpoint=args.endpoint, clients=args.clients,
        requests=args.requests, distinct=args.distinct,
        workers=args.workers, max_queue=args.max_queue,
        analysis=args.analysis, context=args.context,
        job_timeout=args.timeout, deadline=args.deadline,
        verify=not args.no_verify)
    print(stress_report(report))
    if args.json:
        text = json.dumps(report.as_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"report written to {args.json}", file=sys.stderr)
    # Loss or cross-wired results fail the run; busy bounces and
    # timeouts do not (they are backpressure working as designed).
    clean = (report.dropped == 0 and report.duplicated == 0
             and report.mismatched == 0 and report.errors == 0)
    return 0 if clean else 1


def _connect_client(args):
    """A connected :class:`ServiceClient`, or ``None`` after printing
    the can't-reach message (callers exit 1)."""
    from repro.service.client import ServiceClient
    try:
        return ServiceClient(host=args.host, port=args.port,
                             socket_path=args.socket)
    except OSError as error:
        target = args.socket or f"{args.host}:{args.port}"
        print(f"error: cannot reach server at {target}: {error} "
              f"(is `python -m repro serve` running?)",
              file=sys.stderr)
        return None


def _event_printer(args):
    from repro.reporting import job_event_line
    if args.quiet:
        return None
    return lambda event: print(job_event_line(event),
                               file=sys.stderr, flush=True)


def _cmd_submit(args) -> int:
    from repro.reporting import service_stats_report
    if not (args.server_stats or args.shutdown
            or args.list_analyses):
        # Same usage-error contract as analyze (exit 2), checked
        # client-side so a typo needs neither a server nor stdin.
        _validate_analysis_args(args)
    client = _connect_client(args)
    if client is None:
        return 1
    with client:
        if args.list_analyses:
            from repro.reporting import analyses_report
            rows = client.analyses()
            print(analyses_report(
                rows, None, len(rows),
                f"analyses op, {args.socket or args.host}"))
            return 0
        if args.server_stats:
            print(service_stats_report(client.stats()))
            return 0
        if args.shutdown:
            client.shutdown()
            print("server shutting down", file=sys.stderr)
            return 0
        if not args.file:
            print("error: submit needs a file (or --server-stats / "
                  "--list-analyses / --shutdown)", file=sys.stderr)
            return 2
        final = client.submit(
            source=_read_source(args.file), analysis=args.analysis,
            context=args.context, simplify=args.simplify,
            report=args.report, timeout=args.timeout,
            session=args.session, on_event=_event_printer(args))
    if final.get("status") == "ok":
        sys.stdout.write(final["stdout"])
        if final.get("session"):
            print(f"session {final['session']} open — follow up "
                  f"with `repro edit {final['session']} <file>` or "
                  f"`repro query {final['session']} <kind> "
                  f"<target>`", file=sys.stderr)
        elif final.get("cached"):
            print("(cached result)", file=sys.stderr)
        elif final.get("coalesced"):
            print("(coalesced with an identical in-flight job)",
                  file=sys.stderr)
        return 0
    print(f"error: {final.get('error', final)}", file=sys.stderr)
    return 1


def _cmd_edit(args) -> int:
    client = _connect_client(args)
    if client is None:
        return 1
    with client:
        final = client.edit(args.session,
                            source=_read_source(args.file),
                            timeout=args.timeout,
                            on_event=_event_printer(args))
    if final.get("status") == "ok":
        sys.stdout.write(final["stdout"])
        print(f"session {args.session}: re-analyzed "
              f"({final.get('steps', '?')} engine steps)",
              file=sys.stderr)
        return 0
    print(f"error: {final.get('error', final)}", file=sys.stderr)
    return 1


def _cmd_query(args) -> int:
    from repro.analysis.clients import validate_query
    from repro.reporting import query_answer_report
    if args.batch_kind is not None:
        return _cmd_query_batch(args)
    if args.kind is None:
        raise UsageError(
            "query needs KIND against a session, or --kind KIND for "
            "batch mode over a source file")
    # Validate client-side before any connection: a typo exits 2
    # with the same one-line message the server would send.
    validate_query(args.kind, args.target, session=True)
    client = _connect_client(args)
    if client is None:
        return 1
    with client:
        final = client.query(args.session, args.kind, args.target,
                             on_event=_event_printer(args))
    if final.get("status") == "ok":
        print(query_answer_report(final.get("answer") or {}))
        return 0
    print(f"error: {final.get('error', final)}", file=sys.stderr)
    return 1


def _cmd_query_batch(args) -> int:
    """``query FILE --kind KIND``: run the analysis locally (like
    ``analyze``) and print the client pass's JSON answer — the exact
    bytes the service's sessionless query op streams as ``stdout``."""
    from repro.analysis.clients import validate_query
    from repro.cache import open_cache
    from repro.service.jobs import (
        JobSpec, cache_payload, job_cache_key, run_job,
        validate_job_options,
    )
    if args.kind is not None or args.target is not None:
        raise UsageError(
            "batch mode takes no positional KIND/TARGET; use --kind "
            "and --target")
    # Option errors fail fast, before any source is read.
    language = validate_job_options(
        args.analysis, args.context, simplify=args.simplify).language
    validate_query(args.batch_kind, args.batch_target,
                   language=language)
    if args.dot is not None and args.batch_kind != "call-graph":
        raise UsageError(
            f"--dot needs a kind with a DOT export (call-graph), "
            f"not {args.batch_kind!r}")
    spec = JobSpec(source=_read_source(args.session),
                   analysis=args.analysis, context=args.context,
                   simplify=args.simplify, timeout=args.timeout,
                   query_kind=args.batch_kind,
                   query_target=args.batch_target).validate()
    cache = open_cache(args.cache_dir, args.cache or args.cache_dir)
    key = job_cache_key(spec) if cache is not None else None
    payload = cache.get(key) if cache is not None else None
    if payload is not None:
        sys.stdout.write(payload["stdout"])
        answer = payload.get("answer")
        print("(cached result)", file=sys.stderr)
    else:
        row = run_job(spec)
        if row["status"] != "ok":
            print(f"error: {row['error']}", file=sys.stderr)
            return 1
        sys.stdout.write(row["stdout"])
        answer = row.get("answer")
        if cache is not None:
            cache.put(key, cache_payload(row))
    if args.dot is not None:
        dot = (answer or {}).get("dot")
        if not dot:
            print("error: answer carries no DOT export",
                  file=sys.stderr)
            return 1
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot)
        print(f"wrote {args.dot}", file=sys.stderr)
    return 0


def _cmd_tables(args) -> int:
    module_for = {
        "worstcase": "bench_table1_worstcase",
        "precision": "bench_table2_precision",
        "envs": "bench_fig1_fig2_envs",
        "identity": "bench_identity_example",
        "fj-vs-fun": "bench_fj_vs_fun",
        "ablation": "bench_ablation_store",
    }
    import importlib
    import os
    # The table scripts live in the checkout's benchmarks/ directory,
    # found from this file, so the command runs from any directory.
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "..",
        "benchmarks"))
    module = importlib.import_module(module_for[args.table])
    if args.table == "worstcase":
        from repro.metrics.timing import format_table
        headers, rows = module.generate_table(timeout=args.timeout)
        print(format_table(headers, rows))
    else:
        module.main()
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "analyze": _cmd_analyze,
        "analyses": _cmd_analyses,
        "run": _cmd_run,
        "fj": _cmd_fj,
        "tables": _cmd_tables,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "stress": _cmd_stress,
        "submit": _cmd_submit,
        "edit": _cmd_edit,
        "query": _cmd_query,
    }[args.command]
    try:
        return handler(args)
    except UsageError as error:
        # Bad options (unknown analysis, invalid --context): one-line
        # message, argparse-style exit status.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

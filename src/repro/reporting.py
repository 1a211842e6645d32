"""Human-readable reports over analysis results.

Renders the kind of tables the paper draws at the bottom of Figures 1
and 2 — ``context: variable -> {abstract values}`` — plus summaries
for whole runs.  Used by the CLI (:mod:`repro.__main__`) and handy in
a REPL:

    >>> from repro import compile_program, analyze_mcfa
    >>> from repro.reporting import flow_report
    >>> print(flow_report(analyze_mcfa(compile_program("..."), 1)))
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.domains import AConst, APair, BASIC, FClo, \
    KClo, SClo, SCont
from repro.analysis.results import AnalysisResult
from repro.fj.kcfa import AKont, AObj, FJResult
from repro.util.gensym import GensymFactory


def render_value(value) -> str:
    """Short, stable rendering of one abstract value."""
    if value is BASIC:
        return "⊤"
    if isinstance(value, AConst):
        return repr(value)
    if isinstance(value, (KClo, FClo, SClo, SCont)):
        return f"λ@{value.lam.label}"
    if isinstance(value, APair):
        return "pair"
    if isinstance(value, AObj):
        return f"{value.classname}@{value.site}"
    if isinstance(value, AKont):
        return f"kont@{value.stmt.label}"
    return repr(value)


def render_flow_set(values) -> str:
    return "{" + ", ".join(sorted(render_value(v) for v in values)) \
        + "}"


def flow_report(result: AnalysisResult, max_rows: int = 60,
                include_generated: bool = False) -> str:
    """The Figure 1/2-style table: ``context: var -> values``.

    Synthetic pair-field and converter-generated bindings are elided
    unless *include_generated* — user-written names tell the story.
    """
    lines = [f"flow facts — {result.analysis}"
             f"({result.parameter}), "
             f"{len(result.store)} store entries"]
    rows = []
    for (name, context), values in sorted(
            result.store.items(), key=lambda item: repr(item[0])):
        if "@" in name:  # pair fields
            continue
        if not include_generated and GensymFactory.is_generated(name) \
                and GensymFactory.base_of(name) in ("k", "rv", "j",
                                                    "seq", "t", "p"):
            continue
        rows.append(f"  {list(context)}: {name} -> "
                    f"{render_flow_set(values)}")
    if len(rows) > max_rows:
        hidden = len(rows) - max_rows
        rows = rows[:max_rows] + [f"  ... ({hidden} more rows)"]
    lines.extend(rows)
    lines.append(f"result: {render_flow_set(result.halt_values)}")
    return "\n".join(lines)


def inlining_report(result: AnalysisResult) -> str:
    """Call-site resolution: monomorphic vs polymorphic sites."""
    lines = [f"call-site resolution — {result.analysis}"
             f"({result.parameter})"]
    inlinable = set(result.inlinable_call_sites())
    for label in sorted(result.callees):
        callees = result.callees[label]
        call = result.program.calls_by_label.get(label)
        kinds = {("user" if lam.is_user else "cont")
                 for lam in callees}
        if kinds == {"cont"}:
            continue  # return points; not interesting here
        marker = "INLINE" if label in inlinable else \
            f"{len(callees)} callees"
        text = str(call)
        if len(text) > 48:
            text = text[:45] + "..."
        lines.append(f"  @{label:<4} {text:<48} [{marker}]")
    lines.append(f"supported inlinings: "
                 f"{result.supported_inlinings()}")
    return "\n".join(lines)


def environment_report(result: AnalysisResult) -> str:
    """Per-lambda entry-environment counts (the Figure 1/2 metric)."""
    lines = [f"environments per lambda — {result.analysis}"
             f"({result.parameter})"]
    for label, count in sorted(result.environment_counts().items()):
        lam = result.program.lams_by_label.get(label)
        kind = "user" if lam is not None and lam.is_user else "cont"
        lines.append(f"  λ@{label:<4} ({kind}): {count}")
    lines.append(f"total: {result.total_environments()}")
    return "\n".join(lines)


def fj_report(result: FJResult) -> str:
    """Points-to-style report for an FJ analysis."""
    lines = [f"{result.analysis}(k={result.parameter}, "
             f"{result.tick_policy} ticking)"]
    lines.append(f"  {len(result.configs)} configurations, "
                 f"{len(result.objects)} abstract objects, "
                 f"{result.total_environments()} environments")
    by_class: dict[str, int] = defaultdict(int)
    for obj in result.objects:
        by_class[obj.classname] += 1
    lines.append("  abstract objects per class:")
    for classname, count in sorted(by_class.items()):
        lines.append(f"    {classname}: {count}")
    lines.append("  invocation targets:")
    for label in sorted(result.invoke_targets):
        targets = sorted(result.invoke_targets[label])
        stmt = result.program.stmt_by_label[label]
        mark = "MONO" if len(targets) == 1 else "poly"
        lines.append(f"    @{label} {str(stmt):<40} -> "
                     f"{targets} [{mark}]")
    lines.append("  result: "
                 + render_flow_set(result.halt_values))
    return "\n".join(lines)


def analyses_report(rows: list, language: str | None,
                    total_registered: int, source: str) -> str:
    """Render registry listing rows (:func:`repro.analysis.registry.
    registry_listing`) as the ``analyses`` table.

    Shared by ``python -m repro analyses`` (rows from the local
    registry) and ``python -m repro submit --list-analyses`` (rows
    served by a remote server's ``analyses`` op) so the two can never
    drift; *source* names where the rows came from.
    """
    from repro.metrics.timing import format_table
    headers = ["name", "display", "lang", "env-rep", "engine",
               "context policy", "complexity", "specialized",
               "codegen"]
    # Rows served by pre-codegen servers lack the two knob columns;
    # render a "?" rather than crashing --list-analyses against them.
    def knob(row, field):
        value = row.get(field)
        if value is None:
            return "?"
        return "yes" if value else "no"
    table_rows = [[row["name"], row["display"], row["language"],
                   row["env_rep"], row["engine"], row["context"],
                   row["complexity"], knob(row, "specialized"),
                   knob(row, "codegen")]
                  for row in rows]
    lines = [format_table(headers, table_rows)]
    if language is None:
        lines.append(f"{len(rows)} analyses registered "
                     f"(source: {source})")
    else:
        lines.append(f"{len(rows)} {language} analyses "
                     f"(of {total_registered} registered; "
                     f"source: {source})")
    return "\n".join(lines)


def bench_report_table(report) -> str:
    """Render a :class:`~repro.benchsuite.runner.BenchReport`.

    One row per matrix cell plus a footer comparing batch wall-clock
    against the serial cost (the sum of per-task times) — the speedup
    the parallel runner buys on a multi-core machine.
    """
    from repro.metrics.timing import format_table
    headers = ["task", "status", "time", "terms", "configs", "steps",
               "inlinings", "mono"]
    rows = []
    for row in report.rows:
        rows.append([
            row["task"], row["status"],
            f"{row['wall_seconds']:.2f}s",
            str(row.get("terms", row.get("statements", "-"))),
            str(row.get("configs", "-")),
            str(row.get("steps", "-")),
            str(row.get("inlinings", "-")),
            str(row.get("mono_sites", "-")),
        ])
    lines = [format_table(headers, rows)]
    counts = ", ".join(f"{count} {status}" for status, count
                       in sorted(report.counts().items()))
    mode = "serial" if report.serial else f"{report.jobs} workers"
    lines.append("")
    lines.append(f"{len(report.rows)} tasks ({counts}) in "
                 f"{report.elapsed:.2f}s wall ({mode}); "
                 f"serial cost {report.total_analysis_seconds():.2f}s")
    return "\n".join(lines)


def job_event_line(event: dict) -> str:
    """One progress line per streamed service event (the ``submit``
    CLI prints these to stderr as a job advances)."""
    kind = event.get("event", "?")
    job = event.get("job", "?")
    if kind == "queued":
        if event.get("session") and not event.get("key"):
            return f"[{job}] queued (session {event['session']})"
        key = (event.get("key") or "")[:12]
        return f"[{job}] queued (key {key})"
    if kind == "running":
        if event.get("session"):
            return f"[{job}] running (session {event['session']})"
        suffix = " (coalesced with an identical in-flight job)" \
            if event.get("coalesced") else ""
        return f"[{job}] running{suffix}"
    if kind == "done":
        extra = " cached" if event.get("cached") else (
            " coalesced" if event.get("coalesced") else "")
        if event.get("session"):
            extra = f" session {event['session']}"
        wall = event.get("wall_seconds")
        timing = f" in {wall:.2f}s" if isinstance(wall, (int, float)) \
            else ""
        return f"[{job}] {event.get('status')}{extra}{timing}"
    if kind == "busy":
        wait = event.get("retry_after")
        hint = f"; retrying in ~{wait:.2f}s" \
            if isinstance(wait, (int, float)) else ""
        return (f"[{job}] busy (worker {event.get('worker', '?')} "
                f"queue full{hint})")
    if kind == "error":
        return f"[{job}] error: {event.get('error')}"
    return f"[{job}] {kind}"


def service_stats_report(stats: dict) -> str:
    """Render one :meth:`AnalysisServer.stats_snapshot` dict.

    Used by ``python -m repro submit --server-stats`` and the CI
    smoke job; every submission shows up as exactly one of a cache
    hit, a coalesced follower or an executed analysis.
    """
    jobs = stats.get("jobs", {})
    lines = [f"analysis service — {stats.get('endpoint', '?')} "
             f"(protocol v{stats.get('protocol', '?')}, "
             f"{stats.get('workers', '?')} workers, "
             f"up {stats.get('uptime_seconds', 0.0):.0f}s)"]
    lines.append(
        f"  jobs: {jobs.get('submitted', 0)} submitted, "
        f"{jobs.get('completed', 0)} completed "
        f"({jobs.get('ok', 0)} ok, {jobs.get('timeout', 0)} timeout, "
        f"{jobs.get('error', 0)} error), "
        f"{jobs.get('coalesced', 0)} coalesced, "
        f"{jobs.get('rejected', 0)} rejected, "
        f"{stats.get('inflight', 0)} in flight")
    lines.append(f"  executed on the worker fleet: "
                 f"{jobs.get('executed', 0)} analyses "
                 f"({jobs.get('busy', 0)} busy bounces, "
                 f"{jobs.get('redispatched', 0)} redispatched)")
    sessions = stats.get("sessions") or {}
    lines.append(
        f"  sessions: {sessions.get('open', 0)} open "
        f"({jobs.get('sessions', 0)} opened, "
        f"{jobs.get('edits', 0)} edits, "
        f"{jobs.get('queries', 0)} queries)")
    for row in stats.get("fleet") or ():
        state = "alive" if row.get("alive") else "dead"
        lines.append(
            f"    {row.get('worker', '?')} "
            f"(pid {row.get('pid', '?')}, {state}): "
            f"{row.get('jobs', 0)} jobs, "
            f"{row.get('plans_reused', 0)} plans reused, "
            f"depth {row.get('depth', 0)}")
        for store in ("programs", "codegen"):
            counters = row.get(store)
            if not counters:
                continue
            pruned = counters.get("pruned", 0)
            suffix = f", {pruned} pruned" if pruned else ""
            lines.append(
                f"      {store}: {counters.get('hits', 0)} hits, "
                f"{counters.get('misses', 0)} misses"
                f"{suffix}")
    cache = stats.get("cache")
    if cache:
        lines.append(
            f"  cache: {cache.get('hits', 0)} hits, "
            f"{cache.get('misses', 0)} misses, "
            f"{cache.get('writes', 0)} writes, "
            f"{cache.get('rejected', 0)} rejected")
    else:
        lines.append("  cache: disabled")
    return "\n".join(lines)


def query_answer_report(answer: dict) -> str:
    """Render one session point-query answer (the ``query`` CLI's
    stdout) — a few lines, never a full report."""
    kind = answer.get("query")
    target = answer.get("target")
    if kind == "value-of":
        values = answer.get("values") or []
        lines = [f"value-of {target}: {len(values)} value(s) over "
                 f"{answer.get('contexts', 0)} context(s)"]
        lines += [f"  {value}" for value in values]
        return "\n".join(lines)
    if kind == "call-sites-of":
        sites = answer.get("sites") or []
        rendered = ", ".join(str(site) for site in sites) or "none"
        return (f"call-sites-of lam@{target}: {len(sites)} site(s) "
                f"of {answer.get('probed', 0)} probed\n"
                f"  call label(s): {rendered}")
    if kind == "escaping" and target is not None:
        verdict = "escapes" if answer.get("escaping") \
            else "does not escape"
        channels = [name for name, flag in
                    (("halt", answer.get("to_halt")),
                     ("heap", answer.get("to_heap"))) if flag]
        via = f" (via {', '.join(channels)})" if channels else ""
        return f"escaping lam@{target}: {verdict}{via}"
    import json
    return json.dumps(answer, indent=2, sort_keys=True)


def stress_report(report) -> str:
    """Render one :class:`repro.service.stress.StressReport` — the
    throughput/latency summary ``python -m repro stress`` prints."""
    lines = [f"stress — {report.clients} clients x "
             f"{report.requests_per_client} requests "
             f"({report.distinct} distinct programs, "
             f"{report.workers} workers) against {report.endpoint}"]
    lines.append(
        f"  results: {report.completed} completed "
        f"({report.ok} ok, {report.timeout} timeout, "
        f"{report.errors} error), {report.dropped} dropped, "
        f"{report.duplicated} duplicated, "
        f"{report.busy_bounces} busy bounces")
    lines.append(
        f"  verified: {report.verified} responses byte-checked "
        f"against local runs"
        + (f", {report.mismatched} MISMATCHED"
           if report.mismatched else ""))
    lines.append(
        f"  throughput: {report.throughput:.1f} jobs/s over "
        f"{report.wall_seconds:.2f}s")
    lines.append(
        f"  latency: p50 {report.p50 * 1000:.1f}ms, "
        f"p90 {report.p90 * 1000:.1f}ms, "
        f"p99 {report.p99 * 1000:.1f}ms, "
        f"max {report.max_latency * 1000:.1f}ms")
    if report.server_stats:
        jobs = report.server_stats.get("jobs", {})
        cache = report.server_stats.get("cache") or {}
        plans = sum(row.get("plans_reused", 0) for row in
                    report.server_stats.get("fleet") or ())
        lines.append(
            f"  server: {jobs.get('executed', 0)} executed, "
            f"{jobs.get('coalesced', 0)} coalesced, "
            f"{cache.get('hits', 0)} cache hits, "
            f"{plans} plans reused")
    return "\n".join(lines)


def summary_table(results: list[AnalysisResult]) -> str:
    """One row per analysis — compare precision/size side by side."""
    from repro.metrics.timing import format_table
    headers = ["analysis", "param", "configs", "store", "envs",
               "inlinings", "steps"]
    rows = []
    for result in results:
        rows.append([
            result.analysis, str(result.parameter),
            str(result.config_count), str(len(result.store)),
            str(result.total_environments()),
            str(result.supported_inlinings()), str(result.steps),
        ])
    return format_table(headers, rows)

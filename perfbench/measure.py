"""One benchmark run: set up, measure (untraced or traced), assemble
the metrics and the report lines."""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import cells as C
import hermetic
import spans as S
import workloads as W
from declared import END_TO_END, PER_LAYER

#: Layer metrics that are sums per job (the rest are ratios or come
#: from the service counters).
_PER_JOB = {name for name, unit in PER_LAYER
            if unit in ("ms", "count", "bytes")} - {
    "service.overhead_ms", "service.dispatch_wait_ms",
    "service.busy_per_job", "incremental.cold_reference_ms",
    "job.wall_ms", "worker.rss_mb"}


def environment() -> dict:
    commit = "unknown"
    if (hermetic.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(hermetic.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted((hermetic.SRC / "repro").rglob("*.py")):
        tree.update(path.relative_to(hermetic.SRC).as_posix().encode())
        tree.update(path.read_bytes())
    return {"python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": tree.hexdigest()[:16],
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "machine_probe_ms": machine_probe_ms()}


def machine_probe_ms() -> float:
    """How fast this machine runs plain Python right now: the median of
    five timings of a fixed loop.  Shared machines drift by tens of
    percent over minutes; this line lets a reader tell a slow machine
    from a slow program."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for index in range(500_000):
            total += index * index % 7
        times.append(time.perf_counter() - started)
    return round(statistics.median(times) * 1000.0, 3)


# -- untraced runs ---------------------------------------------------------

def untraced(workload: str, seed: int, seconds: float, workdir: Path,
             checker, complete_rounds: bool, setups: int) -> W.Result:
    if workload == "oneshot-cold":
        setup_times = W.oneshot_setup(workdir, setups)
        W.warm_in_process()
        result = W.run_oneshot(seed, seconds, workdir, checker,
                               complete_rounds)
        result.setups = setup_times
        return result
    result = W.Result(workload)
    server = W.setup_fleet(workdir, workload, checker, setups, result)
    try:
        if workload == "edit-stream":
            asyncio.run(W.edit_rounds(server.endpoint, seed, seconds,
                                      complete_rounds, checker, result))
        else:
            W.run_fleet(server, workload, seed, seconds, checker,
                        result)
        result.rss_mb = W.fleet_rss(server)[0]
    finally:
        W.retire(server)
    return result


#: The fleet windows are cut into this many equal parts; throughput
#: and each percentile are the medians over the parts, so one slow
#: stretch of a shared machine does not move them.
SUB_WINDOWS = 5


def _sub_window_medians(result: W.Result) -> dict:
    """Throughput and p50/p90/p99 (seconds) as medians over the parts
    of the timed window.  A percentile whose parts would hold fewer
    than ten samples beyond it is taken over the whole window."""
    started, ended = result.window
    width = (ended - started) / SUB_WINDOWS
    parts: list[list[float]] = [[] for _ in range(SUB_WINDOWS)]
    for stamp, latency in zip(result.stamps, result.latencies):
        index = min(SUB_WINDOWS - 1, int((stamp - started) / width))
        parts[index].append(latency)
    smallest = min(len(part) for part in parts)
    figures = {"throughput": statistics.median(len(part) / width
                                               for part in parts)}
    for quantile in (0.50, 0.90, 0.99):
        figures[quantile] = statistics.median(
            W.percentile(part, quantile) for part in parts) \
            if smallest * (1.0 - quantile) >= 10 \
            else W.percentile(result.latencies, quantile)
    return figures


def end_to_end(result: W.Result) -> dict:
    if result.workload in ("fleet-warm", "fleet-hits"):
        figures = _sub_window_medians(result)
    else:
        if result.workload == "oneshot-cold" and not result.failed:
            # Each cell's median over the rounds: one slow stretch of a
            # shared machine does not move the percentiles.
            sample = [statistics.median(values)
                      for values in result.per_cell.values()]
            throughput = len(sample) / sum(sample)
        else:  # a failure counts against every limit (inf latency)
            sample = result.latencies
            throughput = result.completed / result.busy_time
        figures = {quantile: W.percentile(sample, quantile)
                   for quantile in (0.50, 0.90, 0.99)}
        figures["throughput"] = throughput
    return {
        "setup_s": statistics.median(result.setups),
        "throughput_per_s": figures["throughput"],
        "p50_ms": figures[0.50] * 1000.0,
        "p90_ms": figures[0.90] * 1000.0,
        "p99_ms": figures[0.99] * 1000.0,
        "peak_rss_mb": result.rss_mb,
    }


# -- traced runs -----------------------------------------------------------

def _per_job(totals: dict, count: int) -> dict:
    """Per-job means of summed layer totals."""
    return {name: totals.get(name, 0.0) / count if count else 0.0
            for name in _PER_JOB}


def _job_layers(tracer, roots=("job",)) -> tuple[dict, dict, dict]:
    """Per-job layer metrics, the raw totals, and each root span's
    layer self times (ms)."""
    totals, per_root = S.layer_totals(tracer.spans, set(roots))
    count = int(totals["job.count"])
    metrics = _per_job(totals, count)
    metrics["job.wall_ms"] = totals["job.wall_ms"] / count if count \
        else 0.0
    metrics["job.unaccounted_ratio"] = \
        totals["job.unaccounted_ms"] / totals["job.wall_ms"] \
        if totals["job.wall_ms"] else 0.0
    loads = totals.get("stage.codegen_loads", 0)
    metrics["stage.codegen_hit_ratio"] = \
        1.0 - totals.get("stage.codegen_emits", 0) / loads if loads \
        else 0.0
    gets = totals.get("rcache.gets", 0)
    metrics["rcache.hit_ratio"] = totals.get("rcache.hits", 0) / gets \
        if gets else 0.0
    return metrics, totals, per_root


def _cell_rows(result: W.Result, spans: list, per_root: dict) -> dict:
    """Per (program, analysis, k): sample count, median latency and
    median per-layer self times from the traced replay."""
    layers: dict[str, list[dict]] = {}
    for index, own in per_root.items():
        layers.setdefault(spans[index][4].group, []).append(own)
    rows = {}
    for group, values in sorted(result.per_cell.items()):
        row = {"n": len(values),
               "p50_ms": round(statistics.median(values) * 1000.0, 4)}
        jobs = layers.get(group, [])
        if jobs:
            names = sorted({name for job in jobs for name in job})
            row["layers_ms"] = {
                name: round(statistics.median(job.get(name, 0.0)
                                              for job in jobs), 4)
                for name in names}
        rows[group] = row
    return rows


def _check_reconciled(metrics: dict, result: W.Result) -> None:
    ratio = metrics["job.unaccounted_ratio"]
    if ratio > W.UNACCOUNTED_TOLERANCE:
        result.notes.append(
            f"RECONCILIATION FAILED: job.unaccounted_ratio={ratio:.4f} "
            f"exceeds the tolerance {W.UNACCOUNTED_TOLERANCE}")
        result.reconciled = False
    else:
        result.notes.append(
            f"reconciled: layer self times cover "
            f"{1.0 - ratio:.2%} of {metrics['job.wall_ms']:.3f} ms mean "
            f"job wall (tolerance {W.UNACCOUNTED_TOLERANCE:.0%})")


def traced(workload: str, seed: int, seconds: float, workdir: Path,
           checker):
    """Returns ``(result, metrics, cell_rows, tracer)``.  Each phase
    stops at its time share, mid-round."""
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    if workload == "oneshot-cold":
        W.warm_in_process()
        ran: list = []
        plain = W.run_oneshot(seed, seconds / 2, workdir, checker,
                              False, ran=ran)
        tracer = S.Tracer()
        with tracer.installed(S.JOB_BINDINGS):
            result = W.run_oneshot(seed, seconds, workdir, checker,
                                   False, tracer=tracer, replay=ran)
        layers, _, per_root = _job_layers(tracer)
        metrics.update(layers)
        metrics["trace.overhead_ratio"] = \
            result.busy_time / plain.busy_time
        _merge_failures(result, plain)
        rows = _cell_rows(plain, tracer.spans, per_root)
        _check_reconciled(metrics, result)
        return result, metrics, rows, tracer
    if workload == "fleet-hits":
        result = W.Result(workload)
        server = W.setup_fleet(workdir, workload, checker, 1, result)
        try:
            plain = W.Result(workload)
            W.run_fleet(server, workload, seed, seconds / 2, checker,
                        plain)
            tracer = S.Tracer()
            with tracer.installed(S.SERVER_BINDINGS), \
                    W.dispatch_waits() as waits:
                counters = W.run_fleet(server, workload, seed,
                                       seconds / 2, checker, result)
            metrics.update(W.service_layers(counters, result))
            metrics["worker.rss_mb"] = W.fleet_rss(server)[1]
        finally:
            W.retire(server)
        layers = _server_layers(metrics, tracer, result)
        metrics["job.wall_ms"] = layers["job.wall_ms"]
        metrics["job.unaccounted_ratio"] = layers["job.unaccounted_ratio"]
        metrics["service.dispatch_wait_ms"] = _mean_ms(waits)
        metrics["trace.overhead_ratio"] = \
            statistics.fmean(_finite(result.latencies)) \
            / statistics.fmean(_finite(plain.latencies))
        _merge_failures(result, plain)
        _check_reconciled(metrics, result)
        return result, metrics, {}, tracer
    # fleet-warm and edit-stream: the live server gives the service
    # layers, an in-process replay the workers' layers.
    result = W.Result(workload)
    server = W.setup_fleet(workdir, workload, checker, 1, result)
    stream: list = []
    server_tracer = S.Tracer()
    try:
        with server_tracer.installed(S.SERVER_BINDINGS), \
                W.dispatch_waits() as waits:
            if workload == "edit-stream":
                counters = asyncio.run(W.edit_rounds(
                    server.endpoint, seed, seconds / 3, False, checker,
                    result, stats_of=server))
            else:
                counters = W.run_fleet(server, workload, seed,
                                       seconds / 3, checker, result,
                                       stream=stream)
        metrics.update(W.service_layers(counters, result))
        metrics["worker.rss_mb"] = W.fleet_rss(server)[1]
    finally:
        W.retire(server)
    _server_layers(metrics, server_tracer, result)
    metrics["service.dispatch_wait_ms"] = _mean_ms(waits)
    tracer = S.Tracer()
    if workload == "fleet-warm":
        plain, replayed = W.replay_jobs(stream, seconds / 3, checker)
        with tracer.installed(S.JOB_BINDINGS):
            traced_result, _ = W.replay_jobs(stream[:replayed], None,
                                             checker, tracer=tracer)
    else:
        cold: list = []
        plan = W.edit_plan_for(seed, 1)
        plain = W.replay_sessions(plan, seconds / 3, checker,
                                  cold_reference=cold)
        with tracer.installed(S.JOB_BINDINGS):
            traced_result = W.replay_sessions(plan[:plain.visits], None,
                                              checker, tracer=tracer)
        metrics["incremental.cold_reference_ms"] = _mean_ms(cold)
        metrics["incremental.resumed_ratio"] = \
            traced_result.resumed / max(1, traced_result.completed)
    layers, _, per_root = _job_layers(tracer)
    for name, value in layers.items():
        if name.split(".")[0] not in ("service", "protocol", "rcache"):
            metrics[name] = value  # the rest came from the live server
    metrics["trace.overhead_ratio"] = \
        traced_result.busy_time / plain.busy_time
    _merge_failures(result, plain)
    _merge_failures(result, traced_result)
    rows = _cell_rows(plain, tracer.spans, per_root) \
        if workload == "fleet-warm" else {}
    _check_reconciled(metrics, result)
    return result, metrics, rows, tracer


def _finite(values):
    return [value for value in values if value != math.inf]


def _mean_ms(values) -> float:
    return 1000.0 * statistics.fmean(values) if values else 0.0


def _merge_failures(into: W.Result, other: W.Result) -> None:
    into.attempted += other.attempted
    for reason, count in other.failures.items():
        into.failed += count
        into.failures[reason] = into.failures.get(reason, 0) + count


def _server_layers(metrics: dict, tracer, result: W.Result) -> dict:
    """Set the front door's layer times, per completed request, from
    the live server's spans; returns its per-root job layers."""
    layers, totals, _ = _job_layers(tracer, ("service.handle",
                                             "service.result"))
    count = len(_finite(result.latencies))
    for name in ("protocol.encode_ms", "protocol.decode_ms",
                 "rcache.key_ms", "rcache.get_ms", "rcache.put_ms"):
        metrics[name] = totals.get(name, 0.0) / count if count else 0.0
    return layers


# -- one run ---------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path, quick: bool = False) -> dict:
    """One run; *quick* sets up once and stops mid-round when time is
    up (smoke runs)."""
    checker = C.Checker()
    lines = [f"env {json.dumps(environment(), sort_keys=True)}"]
    started = time.perf_counter()
    if trace:
        result, metrics, rows, tracer = traced(
            workload, seed, seconds, workdir, checker)
        units = PER_LAYER
        hermetic.OUT_DIR.mkdir(exist_ok=True)
        tracer.finish_request(0)
        S.dump(tracer.spans, hermetic.OUT_DIR / f"spans-{workload}.jsonl")
    else:
        result = untraced(workload, seed, seconds, workdir, checker,
                          not quick,
                          1 if quick else W.SETUP_REPEATS[workload])
        metrics = end_to_end(result)
        rows = {}
        units = END_TO_END
        lines.append(f"setup samples={len(result.setups)} "
                     f"values_s={[round(v, 4) for v in result.setups]}")
        if workload == "oneshot-cold":
            over = f"{len(result.per_cell)} per-cell medians"
        elif workload == "edit-stream":
            over = f"{len(result.latencies)} edits"
        else:
            over = (f"{len(result.latencies)} requests in "
                    f"{SUB_WINDOWS} parts")
        beyond = sum(1 for value in result.latencies
                     if value * 1000.0 > metrics["p99_ms"])
        lines.append(f"percentiles over {over}; {beyond} samples "
                     f"beyond p99")
    samples = len(_finite(result.latencies))
    lines.append(
        f"run workload={workload} seed={seed} trace={int(trace)} "
        f"samples={samples} attempted={result.attempted} "
        f"failed={result.failed} failed_ratio="
        f"{result.failed / max(1, result.attempted):.6f} "
        f"failures={json.dumps(result.failures, sort_keys=True)} "
        f"golden_checked={checker.golden_checked} "
        f"wall_s={time.perf_counter() - started:.2f}")
    if checker.mismatches:
        lines.append(f"mismatched cells: {checker.mismatches}")
    if rows:
        hermetic.OUT_DIR.mkdir(exist_ok=True)
        (hermetic.OUT_DIR / f"cells-{workload}.json").write_text(
            json.dumps(rows, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        for group, row in rows.items():
            top = sorted(row.get("layers_ms", {}).items(),
                         key=lambda item: -item[1])[:3]
            lines.append(f"cell {group} n={row['n']} "
                         f"p50_ms={row['p50_ms']} " + " ".join(
                             f"{name}={value}" for name, value in top))
    lines += result.notes
    for line in lines:
        print(line)
    correct = result.failed == 0 and result.reconciled
    return {"correct": correct, "attempted": max(1, result.attempted),
            "failed": result.failed,
            "metrics": {name: {"value": _number(metrics[name]),
                               "unit": unit}
                        for name, unit in units}}


def _number(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else -1.0

"""The four workloads: set-up, the untraced measurement and the traced
run of each.

* ``oneshot-cold`` — the ``analyze --cache-dir <fresh>`` first-run path,
  serially in-process: ``ResultCache.get`` (a miss), ``run_job``,
  ``ResultCache.put``; every job compiles its program afresh and gets
  empty result-cache and codegen directories.
* ``fleet-warm`` — an in-process ``AnalysisServer`` with ``nproc``
  workers and no result cache, warmed, then driven closed-loop.
* ``fleet-hits`` — the same with a fresh result cache pre-filled by the
  warm-up, so every timed request is a cache hit.
* ``edit-stream`` — warm sessions on the fleet receiving seeded
  one-literal edits through the ``edit`` op, one editor, closed loop.

End-to-end numbers come from untraced runs.  The traced run (``--trace
1``) measures the same seeded stream with :mod:`spans` installed: the
front door's layers from the live in-process server, the workers'
layers from an in-process replay through the worker's own entry points
(``run_job(spec, programs=...)``, ``WorkerSessions.create/edit``) with
the caches warmed as a worker's would be.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import cells as C
import fleetload

#: ``oneshot-cold`` runs at least this many whole rounds, so each
#: cell's median rejects one slow round.
MIN_ROUNDS = 3
#: Set-up repetitions per untraced run (``setup_s`` is their median);
#: the cheaper the set-up, the more repeats.
SETUP_REPEATS = {"oneshot-cold": 7, "fleet-warm": 5, "fleet-hits": 5,
                 "edit-stream": 9}
#: Traced runs fail when more than this share of job wall time falls
#: outside every layer span.
UNACCOUNTED_TOLERANCE = 0.10

#: The tiny jobs that warm imports (and, in the fleet, every worker).
WARM_SCHEME = "(define (id x) x)\n(cons (id 1) (id 2))"
_SETUP_PROBE = """
import sys
from repro.service.jobs import JobSpec, run_job
from repro.fj.examples import ALL_EXAMPLES
for spec in (JobSpec(source=sys.argv[1], analysis="mcfa"),
             JobSpec(source=ALL_EXAMPLES["pairs"], analysis="fj-mcfa")):
    assert run_job(spec)["status"] == "ok"
"""


class Result:
    """What one run measured, before it is printed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.latencies: list[float] = []
        self.stamps: list[float] = []  # completion time per latency
        self.window: tuple[float, float] | None = None
        self.busy_time = 0.0  # seconds the throughput is taken over
        self.completed = 0
        self.setups: list[float] = []
        self.rss_mb = 0.0
        self.per_cell: dict[str, list[float]] = {}
        self.notes: list[str] = []
        self.reconciled = True
        self.visits = 0    # edit-stream replays: session visits run
        self.resumed = 0   # edit-stream replays: warm-resumed edits

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def record(self, cell, latency: float, ok: bool,
               reason: str = "mismatch") -> None:
        self.attempted += 1
        self.stamps.append(time.perf_counter())
        if ok:
            self.completed += 1
            self.latencies.append(latency)
            self.per_cell.setdefault(cell.group, []).append(latency)
        else:
            self.fail(reason)
            self.latencies.append(math.inf)  # misses every limit


def percentile(values: list[float], quantile: float) -> float:
    """Nearest rank: the smallest value with at least *quantile* of
    the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    index = max(0, math.ceil(quantile * len(ordered)) - 1)
    return ordered[min(index, len(ordered) - 1)]


def memory_mb(pid: int | str = "self", field: str = "VmHWM") -> float:
    """A process's peak (``VmHWM``) or current (``VmRSS``) resident
    set, from ``/proc``; 0 once the process is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def workers() -> int:
    return max(1, os.cpu_count() or 1)


@contextmanager
def patched(owner, name: str, make):
    """Temporarily replace ``owner.name`` with ``make(original)``."""
    original = owner.__dict__[name] if isinstance(owner, type) \
        else getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


# -- oneshot-cold ----------------------------------------------------------

def oneshot_job(spec, jobdir: str):
    """``analyze --cache-dir <jobdir>``: validate, open both caches,
    probe (a miss), run, store."""
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache, ResultCache
    from repro.service import jobs
    spec.validate()
    cache = ResultCache(jobdir)
    set_default_codegen_cache(CodegenCache(os.path.join(jobdir,
                                                        "codegen")))
    key = jobs.job_cache_key(spec)
    stale = cache.get(key)
    row = jobs.run_job(spec)
    if row["status"] == "ok":
        cache.put(key, jobs.cache_payload(row))
    return row, stale


def oneshot_setup(workdir: Path, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing the stack and
    running the warm-up jobs (each with its own empty cache home)."""
    times = []
    for index in range(repeats):
        env = dict(os.environ)
        env["XDG_CACHE_HOME"] = str(workdir / f"setup{index}")
        started = time.perf_counter()
        # No timeout: Popen.wait(timeout) polls with sleeps, which
        # would quantize the measured time.
        status = subprocess.run([sys.executable, "-c", _SETUP_PROBE,
                                 WARM_SCHEME], env=env).returncode
        times.append(time.perf_counter() - started)
        if status != 0:
            raise RuntimeError(f"set-up probe exited {status}")
    return times


def _oneshot_stream(seed: int, seconds: float, complete_rounds: bool,
                    run_cell):
    fjrand = C.draw_fjrand(seed)
    mix = C.cold_cells(fjrand)
    started = time.perf_counter()
    round_index = 0
    while True:
        for cell in C.shuffled(mix, seed, round_index, "cold"):
            if not complete_rounds \
                    and time.perf_counter() - started >= seconds:
                return
            run_cell(cell)
        round_index += 1
        if round_index >= MIN_ROUNDS \
                and time.perf_counter() - started >= seconds:
            return


def run_oneshot(seed: int, seconds: float, workdir: Path, checker,
                complete_rounds: bool, tracer=None,
                replay: list | None = None,
                ran: list | None = None) -> Result:
    """Untraced (or, with *tracer*, traced) serial cold jobs.  With
    *replay* the given cell list runs instead of the timed stream;
    *ran* collects the cells run."""
    result = Result("oneshot-cold")
    jobs_root = Path(tempfile.mkdtemp(prefix="cold-", dir=workdir))
    counter = [0]

    def run_cell(cell) -> None:
        spec = C.cell_spec(cell)
        jobdir = jobs_root / f"j{counter[0]}"
        counter[0] += 1
        os.environ["XDG_CACHE_HOME"] = str(jobdir / "xdg")
        # Each job starts from empty process caches and a collected
        # heap, as a fresh process would, so earlier jobs' leftovers
        # never land in its time or its memory.
        clear_process_caches()
        gc.collect()
        first = len(tracer.spans) if tracer else 0
        started = time.perf_counter()
        if tracer is None:
            row, stale = oneshot_job(spec, str(jobdir))
        else:
            row, stale = tracer.call(cell, "job", oneshot_job, spec,
                                     str(jobdir))
        latency = time.perf_counter() - started
        if tracer is not None:
            tracer.finish_request(first)
        ok = row["status"] == "ok" and stale is None \
            and checker.check(cell, row["stdout"])
        result.record(cell, latency, ok,
                      "stale-cache" if stale is not None else
                      row["status"] if row["status"] != "ok"
                      else "mismatch")
        result.busy_time += latency
        if ran is not None:
            ran.append(cell)
        shutil.rmtree(jobdir, ignore_errors=True)

    if replay is not None:
        for cell in replay:
            run_cell(cell)
    else:
        _oneshot_stream(seed, seconds, complete_rounds, run_cell)
    shutil.rmtree(jobs_root, ignore_errors=True)
    result.rss_mb = memory_mb()
    return result


def warm_in_process() -> None:
    """Import and exercise the stack once, then freeze everything
    alive, so the benchmark's own objects and the warm-up's leftovers
    never add to the cost of a measured job's collections."""
    from repro.fj.examples import ALL_EXAMPLES
    from repro.service.jobs import JobSpec, run_job
    for spec in (JobSpec(source=WARM_SCHEME, analysis="mcfa"),
                 JobSpec(source=ALL_EXAMPLES["pairs"],
                         analysis="fj-mcfa")):
        run_job(spec)
    clear_process_caches()
    gc.collect()
    gc.freeze()


def clear_process_caches() -> None:
    """Empty the program's process-wide memo tables (free variables,
    keyed by node identity), which otherwise keep every earlier job's
    syntax tree alive; a fresh ``analyze`` process starts without
    them."""
    from repro.cps import syntax
    from repro.scheme import freevars
    freevars._free_vars_cached.cache_clear()
    syntax._FREE_VARS_CACHE.clear()
    syntax._FREE_VARS_KEEPALIVE.clear()


# -- the fleet -------------------------------------------------------------

def stop_forkserver() -> None:
    """Retire multiprocessing's forkserver so the next fleet start
    pays for a fresh one, as a fresh service does."""
    import multiprocessing.forkserver as forkserver
    helper = getattr(forkserver, "_forkserver", None)
    stop = getattr(helper, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def start_server(workdir: Path, tag: str, with_cache: bool):
    from repro.cache import ResultCache
    from repro.service.server import AnalysisServer
    home = workdir / tag
    cache = ResultCache(home / "results") if with_cache else None
    return AnalysisServer(port=0, workers=workers(), cache=cache,
                          codegen_dir=str(home / "codegen"),
                          default_timeout=60.0).start()


def submit_message(cell) -> dict:
    spec = C.cell_spec(cell)
    return {"op": "submit", "source": spec.source,
            "analysis": spec.analysis, "context": spec.context,
            "timeout": spec.timeout}


async def _warm_fleet(endpoint: str, kinds: str, checker) -> int:
    """Submit every fleet key once (and, for sessions, open one
    zero-depth session per suite program and edit it once)."""
    failures = 0
    connection = await fleetload.Connection.open(endpoint)
    try:
        if kinds == "sessions":
            for program in C.session_programs():
                base = C.Cell(program, "zero", 0)
                message = dict(submit_message(base), session=True)
                opened = await fleetload.send(connection, message)
                if opened.status != "ok":
                    failures += 1
                    continue
                edit = C.Cell(program, "zero", 0,
                              edit=C.edit_values(program)[0])
                edited = await fleetload.send(connection, {
                    "op": "edit", "session": opened.event["session"],
                    "source": C.cell_source(edit)})
                failures += edited.status != "ok" or not checker.check(
                    edit, edited.event.get("stdout"))
        else:
            outcomes = await asyncio.gather(*(
                fleetload.send(connection, submit_message(cell))
                for cell in C.fleet_cells()))
            failures += sum(outcome.status != "ok"
                            or not checker.check(
                                cell, outcome.event.get("stdout"))
                            for cell, outcome
                            in zip(C.fleet_cells(), outcomes))
    finally:
        await connection.close()
    return failures


def retire(server) -> None:
    """Stop a server whose workers are idle.  The workers are killed
    first: a fleet's own stop waits out a join timeout per worker (a
    worker misses the pipe EOF while the parent's pump thread still
    polls its end), which would add seconds to every run."""
    for row in server.stats_snapshot()["fleet"]:
        if row.get("alive") and row.get("pid"):
            try:
                os.kill(row["pid"], signal.SIGKILL)
            except ProcessLookupError:
                pass
    server.stop()


def setup_fleet(workdir: Path, workload: str, checker, repeats: int,
                result: Result):
    """Start (and warm) the service *repeats* times; the last one is
    kept.  Every start pays a fresh forkserver, fleet and warm-up."""
    server = None
    for index in range(repeats):
        if server is not None:
            retire(server)
            stop_forkserver()
        started = time.perf_counter()
        server = start_server(workdir, f"setup{index}",
                              with_cache=workload == "fleet-hits")
        failures = asyncio.run(_warm_fleet(
            server.endpoint,
            "sessions" if workload == "edit-stream" else "keys",
            checker))
        result.setups.append(time.perf_counter() - started)
        if failures:
            retire(server)
            raise RuntimeError(f"{workload}: warm-up failed "
                               f"{failures} request(s)")
    return server


def fleet_rss(server) -> tuple[float, float]:
    """(benchmark + workers peak RSS, mean worker current RSS) in MB,
    for the worker pids the server's ``stats`` reports."""
    pids = [row["pid"] for row in server.stats_snapshot()["fleet"]
            if row.get("alive")]
    peak = memory_mb() + sum(memory_mb(pid) for pid in pids)
    current = statistics.fmean(memory_mb(pid, "VmRSS") for pid in pids) \
        if pids else 0.0
    return peak, current


def run_fleet(server, workload: str, seed: int, seconds: float,
              checker, result: Result, stream: list | None = None
              ) -> dict:
    """Closed-loop keyed submits; returns service counters of the
    window.  *stream*, when given, collects the drawn cells."""
    draws = C.key_stream(seed)
    cached = [0, 0]  # (cached events, ok events)

    def next_item():
        cell = next(draws)
        if stream is not None:
            stream.append(cell)
        return cell

    overheads = []

    def on_outcome(outcome) -> None:
        cell = outcome.item
        if outcome.status != "ok":
            result.record(cell, outcome.latency, False, outcome.status)
            return
        event = outcome.event
        cached[1] += 1
        if event.get("cached"):
            cached[0] += 1
            overheads.append(outcome.latency)
        else:
            overheads.append(outcome.latency
                             - (event.get("wall_seconds") or 0.0))
        result.record(cell, outcome.latency,
                      checker.check(cell, event.get("stdout")))

    before = server.stats_snapshot()
    started, ended, duplicates = asyncio.run(fleetload.closed_loop(
        server.endpoint, workers(), 2 * workers(), next_item,
        submit_message, seconds, on_outcome))
    after = server.stats_snapshot()
    for _ in range(duplicates):
        result.fail("duplicate")
    result.busy_time += ended - started
    result.window = (started, ended)
    return {"before": before, "after": after, "overheads": overheads,
            "cached": cached[0], "ok": cached[1]}


def service_layers(counters: dict, result: Result) -> dict:
    """Service-side ratios from the ``stats`` deltas of one window."""
    before, after = counters["before"], counters["after"]

    def delta(*path):
        old, new = before, after
        for part in path:
            old, new = old[part], new[part]
        return new - old

    submitted = max(1, delta("jobs", "submitted"))
    jobs_run = sum(row["jobs"] for row in after["fleet"]) \
        - sum(row["jobs"] for row in before["fleet"])
    reused = sum(row["plans_reused"] for row in after["fleet"]) \
        - sum(row["plans_reused"] for row in before["fleet"])
    overheads = counters["overheads"]
    return {
        "service.overhead_ms": 1000.0 * statistics.fmean(overheads)
        if overheads else 0.0,
        "service.busy_per_job": delta("jobs", "busy") / submitted,
        "service.coalesced_ratio": delta("jobs", "coalesced") / submitted,
        "service.plans_reused_ratio": reused / jobs_run if jobs_run
        else 0.0,
        "rcache.hit_ratio": counters["cached"] / counters["ok"]
        if counters["ok"] else 0.0,
    }


# -- edit-stream -----------------------------------------------------------

async def edit_rounds(endpoint: str, seed: int, seconds: float,
                      complete_rounds: bool, checker, result: Result,
                      stats_of=None) -> dict | None:
    """One editor: per visit, open a session (untimed) and send its
    edits one at a time; whole rounds of visits until *seconds* of edit
    time.  With *stats_of* (the server) returns the service counters
    of the window, as :func:`run_fleet` does."""
    connection = await fleetload.Connection.open(endpoint)
    overheads: list[float] = []
    before = stats_of.stats_snapshot() if stats_of else None
    try:
        round_index = 0
        while True:
            for base, edits in C.edit_plan(seed, round_index):
                if not complete_rounds and result.busy_time >= seconds:
                    break
                opened = await fleetload.send(
                    connection, dict(submit_message(base), session=True))
                result.attempted += 1
                if opened.status != "ok" or not checker.check(
                        base, opened.event.get("stdout")):
                    result.fail(f"open-{opened.status}")
                    continue
                for cell in edits:
                    if not complete_rounds \
                            and result.busy_time >= seconds:
                        break
                    outcome = await fleetload.send(connection, {
                        "op": "edit", "session": opened.event["session"],
                        "source": C.cell_source(cell), "timeout": 60.0})
                    ok = outcome.status == "ok" and checker.check(
                        cell, outcome.event.get("stdout"))
                    result.record(cell, outcome.latency, ok,
                                  outcome.status if outcome.status != "ok"
                                  else "mismatch")
                    result.busy_time += outcome.latency
                    if outcome.status == "ok":
                        overheads.append(
                            outcome.latency
                            - (outcome.event.get("wall_seconds") or 0.0))
            else:
                round_index += 1
                if result.busy_time < seconds:
                    continue
            break
    finally:
        await connection.close()
        for _ in range(connection.duplicates):
            result.fail("duplicate")
    if stats_of is None:
        return None
    return {"before": before, "after": stats_of.stats_snapshot(),
            "overheads": overheads, "cached": 0, "ok": len(overheads)}


def replay_sessions(plan, seconds: float | None, checker, tracer=None,
                    cold_reference: list | None = None) -> Result:
    """The edit stream through a worker's own session table, visit by
    visit until *seconds* of edit time (``None``: the whole plan);
    ``result.visits`` says how many visits ran."""
    from repro.cache import ProgramCache
    from repro.service.jobs import WorkerSessions, run_job
    result = Result("edit-stream")
    programs = ProgramCache()
    sessions = WorkerSessions(programs=programs)
    for number, (base, edits) in enumerate(plan):
        if seconds is not None and result.busy_time >= seconds:
            break
        result.visits += 1
        sid = f"s{number}"
        spec = C.cell_spec(base)
        row = sessions.create(sid, spec) if tracer is None else \
            tracer.call(base, "open", sessions.create, sid, spec)
        result.attempted += 1
        if row["status"] != "ok" or not checker.check(base,
                                                      row["stdout"]):
            result.fail("open")
            continue
        for cell in edits:
            source = C.cell_source(cell)
            first = len(tracer.spans) if tracer else 0
            started = time.perf_counter()
            row = sessions.edit(sid, source, 60.0) if tracer is None \
                else tracer.call(cell, "job", sessions.edit, sid, source,
                                 60.0)
            latency = time.perf_counter() - started
            if tracer is not None:
                tracer.finish_request(first)
            ok = row["status"] == "ok" and checker.check(cell,
                                                         row["stdout"])
            result.record(cell, latency, ok)
            result.busy_time += latency
            result.resumed += row.get("mode") == "resumed"
            if cold_reference is not None:
                started = time.perf_counter()
                cold = run_job(C.cell_spec(cell), programs=programs)
                cold_reference.append(time.perf_counter() - started)
                if cold["status"] != "ok" or not checker.check(
                        cell, cold["stdout"]):
                    result.fail("cold-reference")
    return result


def replay_jobs(stream: list, seconds: float | None, checker,
                tracer=None) -> tuple[Result, int]:
    """The fleet-warm request stream through a worker's own entry
    point, ``run_job(spec, programs=...)``, after warming the program
    and codegen caches with one pass over the keys (as a worker's are
    by the fleet warm-up).  Runs until *seconds* of job time (``None``:
    the whole stream); returns the result and how many jobs ran."""
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache, ProgramCache
    from repro.service.jobs import run_job
    set_default_codegen_cache(CodegenCache())
    programs = ProgramCache()
    for cell in C.fleet_cells():
        run_job(C.cell_spec(cell), programs=programs)
    result = Result("fleet-warm")
    count = 0
    for cell in stream:
        if seconds is not None and result.busy_time >= seconds:
            break
        count += 1
        spec = C.cell_spec(cell)
        first = len(tracer.spans) if tracer else 0
        started = time.perf_counter()
        row = run_job(spec, programs=programs) if tracer is None else \
            tracer.call(cell, "job", run_job, spec, programs)
        latency = time.perf_counter() - started
        if tracer is not None:
            tracer.finish_request(first)
        result.busy_time += latency
        result.record(cell, latency, row["status"] == "ok"
                      and checker.check(cell, row["stdout"]))
    return result, count


@contextmanager
def dispatch_waits():
    """Collect, per fleet job, the time from ``WorkerFleet.dispatch``
    to the server handling its result, minus the worker's own wall
    time: queueing at the worker, pipe transit both ways and the hop
    into the event loop."""
    from repro.service.fleet import WorkerFleet
    from repro.service.server import AnalysisServer
    sent: dict = {}
    waits: list[float] = []

    def make_dispatch(original):
        def dispatch(self, worker_id, request):
            sent[request[1]] = time.perf_counter()
            return original(self, worker_id, request)
        return dispatch

    def make_on_result(original):
        def on_result(self, ticket, row):
            started = sent.pop(ticket, None)
            if started is not None:
                waits.append(time.perf_counter() - started
                             - (row.get("wall_seconds") or 0.0))
            return original(self, ticket, row)
        return on_result

    with patched(WorkerFleet, "dispatch", make_dispatch), \
            patched(AnalysisServer, "_on_result", make_on_result):
        yield waits


def edit_plan_for(seed: int, rounds: int) -> list:
    plan = []
    for round_index in range(rounds):
        plan += C.edit_plan(seed, round_index)
    return plan

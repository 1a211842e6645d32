"""Parallel batch benchmark runner: the whole matrix, every core.

The harnesses under ``benchmarks/`` reproduce individual tables by
running analyses strictly serially.  This module is the
high-throughput path the ROADMAP asks for: it expands a benchmark
matrix — *program × analysis × context depth* (k or m), optionally at
a scale factor — into independent :class:`BenchTask` units and fans
them across a :class:`concurrent.futures.ProcessPoolExecutor`.  Each
task compiles its own program inside the worker process (so parsing
and CPS conversion parallelize too) and runs under a per-task
wall-clock :class:`~repro.util.budget.Budget`, so one exponential cell
cannot stall the batch: it times out cooperatively and is reported as
``timeout`` while the other workers keep draining the queue.

Results stream back as tasks finish and are written as a
machine-readable ``BENCH_*.json`` report (see :class:`BenchReport`),
giving the repo a perf trajectory that later PRs can diff against.

Entry points::

    python -m repro bench --quick            # smoke matrix
    python -m repro bench --copies 4 --jobs 8
    python benchmarks/bench_parallel_matrix.py   # serial-vs-parallel

The Scheme suite programs come from :mod:`repro.benchsuite.programs`
(scaled honestly via :mod:`repro.benchsuite.scaling`); the
Featherweight Java programs from :mod:`repro.fj.examples`.
"""

from __future__ import annotations

import json
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from repro.errors import AnalysisTimeout, UsageError
# The analysis names and per-analysis dispatch are owned
# by the central registry (via the shared job core) so that ``bench``
# workers and the analysis service run literally the same code path —
# a newly registered analysis is benchable with no edits here.
from repro.service.jobs import (
    FJ_ANALYSES, SCHEME_ANALYSES, run_fj_analysis, run_scheme_analysis,
)
from repro.util.budget import Budget

#: Builtin analyses (import-time snapshot; see the jobs.py caveat —
#: build_matrix and run_task consult the live registry).
ALL_ANALYSES = SCHEME_ANALYSES + FJ_ANALYSES

#: The analyses a default ``bench`` run exercises: the §6.2 matrix
#: plus the registry's new OO policies (FJ m-CFA and the hybrid
#: sensitivity ladder).
DEFAULT_ANALYSES = ("kcfa", "mcfa", "poly", "zero", "fj-kcfa",
                    "fj-poly", "fj-mcfa", "fj-hybrid")

#: Worst-case ladder program names: ``worst<depth>`` (e.g. worst8)
#: generates the Van Horn–Mairson doubling term of that depth via
#: :func:`repro.generators.worstcase.worst_case_source`.
WORST_PREFIX = "worst"


def is_worst_case_name(name: str) -> bool:
    digits = name[len(WORST_PREFIX):]
    return name.startswith(WORST_PREFIX) and digits.isdigit() \
        and int(digits) >= 1  # worst0 is not a valid ladder term


def worst_case_depth(name: str) -> int:
    return int(name[len(WORST_PREFIX):])


#: FJ dispatch-chain ladder names: ``fjchain<depth>`` (e.g.
#: fjchain200) generate the scalable OO workload of
#: :func:`repro.generators.fj_chain.fj_chain_source`.
FJ_CHAIN_PREFIX = "fjchain"


def is_fj_chain_name(name: str) -> bool:
    digits = name[len(FJ_CHAIN_PREFIX):]
    return name.startswith(FJ_CHAIN_PREFIX) and digits.isdigit() \
        and int(digits) >= 1


def fj_chain_depth(name: str) -> int:
    return int(name[len(FJ_CHAIN_PREFIX):])


#: Seeded random-FJ ladder names: ``fjrand<seed>`` (e.g. fjrand42)
#: generate the well-typed terminating programs of
#: :func:`repro.generators.fj_random.fj_random_source` — the same
#: corpus the FJ property suite samples, so ``bench`` can sweep
#: arbitrary generated workloads by name alone.
FJ_RANDOM_PREFIX = "fjrand"


def is_fj_random_name(name: str) -> bool:
    digits = name[len(FJ_RANDOM_PREFIX):]
    return name.startswith(FJ_RANDOM_PREFIX) and digits.isdigit()


def fj_random_seed(name: str) -> int:
    return int(name[len(FJ_RANDOM_PREFIX):])


#: The ``bench --quick`` smoke matrix (CI, and the tier differential
#: in ``tests/test_benchrunner.py``).
QUICK_PROGRAMS = ("eta", "map", "pairs")
QUICK_ANALYSES = ("mcfa", "zero", "fj-poly")
QUICK_CONTEXTS = (0, 1)


@dataclass(frozen=True, slots=True)
class BenchTask:
    """One cell of the benchmark matrix.

    ``program`` is a Scheme suite name (``eta``, ``map``, ...), a
    worst-case ladder name (``worst8``) or an FJ example name
    (``pairs``, ``dispatch``, ...); ``copies`` scales Scheme suite
    programs via :func:`repro.benchsuite.scaling.scaled_source` and is
    ignored for generated and FJ programs.  ``obj_depth`` is the
    hybrid ladder's receiver-chain depth (fj-hybrid only).  Tasks run
    one-shot, so they take the default engine tier; each row's
    ``engine_path`` records which loop ran.
    """

    program: str
    analysis: str
    parameter: int
    copies: int = 1
    timeout: float = 30.0
    obj_depth: int | None = None

    @property
    def task_id(self) -> str:
        scale = f"x{self.copies}" if self.copies > 1 else ""
        obj = f",obj={self.obj_depth}" if self.obj_depth is not None \
            else ""
        return (f"{self.program}{scale}:{self.analysis}"
                f"({self.parameter}{obj})")


def task_source(task: BenchTask) -> str:
    """The exact program text a task analyzes — the cache-key input.

    Resolving the source is cheap (no compilation), so the batch
    driver can consult the persistent cache before dispatching the
    task to a worker.
    """
    from repro.benchsuite.programs import BY_NAME
    from repro.benchsuite.scaling import scaled_source
    from repro.fj.examples import ALL_EXAMPLES
    from repro.generators.fj_chain import fj_chain_source
    from repro.generators.fj_random import fj_random_source
    from repro.generators.worstcase import worst_case_source

    if is_worst_case_name(task.program):
        return worst_case_source(worst_case_depth(task.program))
    if is_fj_chain_name(task.program):
        return fj_chain_source(fj_chain_depth(task.program))
    if is_fj_random_name(task.program):
        return fj_random_source(fj_random_seed(task.program))
    if task.program in BY_NAME:
        bench = BY_NAME[task.program]
        if task.copies > 1:
            return scaled_source(bench, task.copies)
        return bench.source
    return ALL_EXAMPLES[task.program]


def _scheme_program(task: BenchTask):
    from repro.benchsuite.programs import BY_NAME
    from repro.benchsuite.scaling import scaled_program
    from repro.generators.worstcase import worst_case_program

    if is_worst_case_name(task.program):
        return worst_case_program(worst_case_depth(task.program))
    if task.copies > 1:
        return scaled_program(task.program, task.copies)
    return BY_NAME[task.program].compile()


def _fj_program(task: BenchTask):
    from repro.fj import parse_fj
    from repro.fj.examples import ALL_EXAMPLES
    from repro.generators.fj_chain import fj_chain_source
    from repro.generators.fj_random import fj_random_source

    if is_fj_chain_name(task.program):
        return parse_fj(fj_chain_source(fj_chain_depth(task.program)))
    if is_fj_random_name(task.program):
        return parse_fj(fj_random_source(fj_random_seed(task.program)))
    return parse_fj(ALL_EXAMPLES[task.program])


def run_task(task: BenchTask) -> dict:
    """Execute one matrix cell; always returns a row, never raises.

    This is the worker-process entry point: it compiles the program
    locally (parallelizing front-end work too) and runs the analysis
    under the task's wall-clock budget.  The row's ``status`` is
    ``ok``, ``timeout`` or ``error``.
    """
    row = {
        "task": task.task_id,
        "program": task.program,
        "analysis": task.analysis,
        "parameter": task.parameter,
        "copies": task.copies,
        "timeout": task.timeout,
        "pid": os.getpid(),
    }
    if task.obj_depth is not None:
        row["obj_depth"] = task.obj_depth
    budget = Budget(max_seconds=task.timeout)
    started = time.perf_counter()
    try:
        from repro.analysis.registry import registry
        if registry().get(task.analysis).language == "fj":
            program, run = _fj_program(task), run_fj_analysis
        else:
            program, run = _scheme_program(task), run_scheme_analysis
        # The budget bounds the analysis, not the compile.
        budget.start()
        result = run(program, task.analysis, task.parameter, budget,
                     obj_depth=task.obj_depth)
        summary = result.summary()
        summary["engine_path"] = getattr(result, "engine_path",
                                         "generic")
        # The task's identity keys (analysis, parameter, ...) stay
        # authoritative so BENCH_*.json rows group consistently
        # across statuses; the summary's display name would differ
        # (e.g. "mcfa" vs "m-CFA").
        row.update({key: value for key, value in summary.items()
                    if key not in row})
        row["status"] = "ok"
    except AnalysisTimeout:
        row["status"] = "timeout"
    except Exception as error:  # keep the batch alive
        row["status"] = "error"
        row["error"] = f"{type(error).__name__}: {error}"
    row["wall_seconds"] = round(time.perf_counter() - started, 6)
    return row


def build_matrix(programs: Iterable[str], analyses: Iterable[str],
                 contexts: Iterable[int], copies: int = 1,
                 timeout: float = 30.0,
                 obj_depths: Iterable[int] | None = None
                 ) -> list[BenchTask]:
    """Expand program × analysis × context (× obj-depth) into tasks.

    Scheme analyses pair with Scheme programs (suite names or
    ``worst<depth>`` ladder terms) and FJ analyses with FJ programs;
    mismatched combinations are skipped rather than rejected, so one
    flag set can drive a heterogeneous matrix.  The ``obj_depths``
    axis is different: it only exists on the hybrid ladder, so
    passing it alongside any analysis without the axis is a
    :class:`~repro.errors.UsageError` (a silently skipped sweep would
    report an empty or misleading ladder).
    """
    from repro.benchsuite.programs import BY_NAME
    from repro.fj.examples import ALL_EXAMPLES

    from repro.analysis.registry import registry

    contexts = sorted(set(contexts))
    # Dedup while preserving order: duplicate cells would share a
    # task_id and make the report's row order nondeterministic.
    programs = list(dict.fromkeys(programs))
    analyses = list(dict.fromkeys(analyses))
    depth_axis = None if obj_depths is None \
        else sorted(set(obj_depths))
    # Consult the registry live (not the import-time tuples) so an
    # analysis registered at runtime is benchable immediately.
    table = registry()
    unknown = [name for name in analyses if name not in table]
    if unknown:
        raise UsageError(
            f"unknown analyses {unknown!r}; choose from "
            f"{', '.join(table.names())}")
    if depth_axis is not None:
        no_axis = [name for name in analyses
                   if not table.get(name).takes_obj_depth]
        if no_axis:
            capable = [spec.name for spec in table.specs()
                       if spec.takes_obj_depth]
            raise UsageError(
                f"--obj-depth applies only to "
                f"{', '.join(capable) or 'no registered analysis'}; "
                f"{', '.join(repr(name) for name in no_axis)} "
                f"has no obj-depth axis")
    tasks = []
    for program in programs:
        if program in BY_NAME or is_worst_case_name(program):
            language = "scheme"
        elif program in ALL_EXAMPLES or is_fj_chain_name(program) \
                or is_fj_random_name(program):
            language = "fj"
        else:
            raise UsageError(f"unknown benchmark program {program!r}")
        for analysis in analyses:
            if table.get(analysis).language != language:
                continue
            for parameter in contexts:
                # Context-free analyses (0CFA, the pushdown summary
                # rep) have no context knob; emit each once.
                if table.get(analysis).context_free \
                        and parameter != min(contexts):
                    continue
                for obj_depth in (depth_axis if depth_axis is not None
                                  else (None,)):
                    tasks.append(BenchTask(
                        program=program, analysis=analysis,
                        parameter=parameter,
                        copies=copies if program in BY_NAME else 1,
                        timeout=timeout, obj_depth=obj_depth))
    return tasks


def default_programs(include_fj: bool = True) -> list[str]:
    """Every Scheme suite program, plus the FJ examples."""
    from repro.benchsuite.programs import BY_NAME
    from repro.fj.examples import ALL_EXAMPLES

    names = list(BY_NAME)
    if include_fj:
        names += list(ALL_EXAMPLES)
    return names


@dataclass
class BenchReport:
    """A finished batch: environment, matrix shape, per-task rows."""

    rows: list[dict]
    jobs: int
    serial: bool
    elapsed: float
    started_at: str
    python: str = field(default_factory=platform.python_version)
    platform: str = field(default_factory=platform.platform)
    cpu_count: int = field(default_factory=lambda: os.cpu_count() or 1)

    @property
    def ok_rows(self) -> list[dict]:
        return [row for row in self.rows if row["status"] == "ok"]

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row["status"]] = counts.get(row["status"], 0) + 1
        return counts

    def total_analysis_seconds(self) -> float:
        """Σ per-task wall time — what a serial run would have cost."""
        return sum(row["wall_seconds"] for row in self.rows)

    def as_dict(self) -> dict:
        return asdict(self)

    def write(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def default_report_path(directory: str = ".") -> str:
    stamp = time.strftime("%Y%m%d_%H%M%S")
    return os.path.join(directory, f"BENCH_{stamp}.json")


def _task_cache_key(task: BenchTask) -> str:
    """The persistent-cache key of one matrix cell.

    Keyed by the exact program text (content hash), the analysis, the
    context depth and the result-relevant options; the timeout is
    excluded on purpose (a completed result does not depend on it, and
    timed-out rows are never cached).
    """
    from repro.cache import cache_key
    return cache_key(task_source(task), task.analysis, task.parameter,
                     {"bench": True, "copies": task.copies,
                      "obj_depth": task.obj_depth})


def run_batch(tasks: list[BenchTask], jobs: int | None = None,
              serial: bool = False,
              progress: Callable[[str], None] | None = None,
              cache=None) -> BenchReport:
    """Run a batch of tasks, streaming progress as they finish.

    With ``serial=True`` (or a single job) everything runs in-process
    — the baseline the parallel path is measured against.  Otherwise
    tasks fan out across worker processes; results are collected with
    :func:`concurrent.futures.as_completed`, so a slow cell never
    blocks reporting of the cells that beat it.

    With a :class:`~repro.cache.ResultCache`, each cell is first
    looked up by content key (:func:`_task_cache_key`); hits skip the
    fixpoint entirely and are reported with ``"cached": True`` (their
    ``wall_seconds`` is the original run's).  Fresh ``ok`` rows are
    written back.  All cache I/O happens in the parent process.
    """
    jobs = max(1, jobs or os.cpu_count() or 1)
    emit = progress or (lambda message: None)
    started_at = time.strftime("%Y-%m-%dT%H:%M:%S")
    started = time.perf_counter()
    rows: list[dict] = []
    pending: list[BenchTask] = []
    keys: dict[BenchTask, str] = {}
    total = len(tasks)
    index = 0
    if cache is not None:
        for task in tasks:
            keys[task] = _task_cache_key(task)
            row = cache.get(keys[task])
            if row is None or row.get("status") != "ok":
                pending.append(task)
                continue
            row = dict(row)
            row["cached"] = True
            index += 1
            rows.append(row)
            emit(_progress_line(index, total, row))
    else:
        pending = list(tasks)

    def finish(row: dict, task: BenchTask) -> None:
        nonlocal index
        index += 1
        rows.append(row)
        if cache is not None and row["status"] == "ok":
            payload = {key: value for key, value in row.items()
                       if key != "pid"}
            cache.put(keys[task], payload)
        emit(_progress_line(index, total, row))

    # The recorded mode reflects what was *requested* for the batch;
    # a warm cache may leave too little pending work to bother
    # spinning up the pool, but that must not relabel a parallel run
    # as serial in the report.
    serial = serial or jobs == 1 or total <= 1
    if serial or len(pending) <= 1:
        for task in pending:
            finish(run_task(task), task)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(run_task, task): task
                       for task in pending}
            for future in as_completed(futures):
                finish(future.result(), futures[future])
    elapsed = time.perf_counter() - started
    # Deterministic report order regardless of completion order.
    order = {task.task_id: index for index, task in enumerate(tasks)}
    rows.sort(key=lambda row: order.get(row["task"], len(order)))
    return BenchReport(rows=rows, jobs=1 if serial else jobs,
                       serial=serial, elapsed=elapsed,
                       started_at=started_at)


def _progress_line(index: int, total: int, row: dict) -> str:
    mark = {"ok": "✓", "timeout": "∞", "error": "!"}[row["status"]]
    extra = ""
    if row.get("cached"):
        extra = " cached"
    elif row["status"] == "ok":
        extra = f" {row['wall_seconds']:.2f}s steps={row.get('steps')}"
    elif row["status"] == "error":
        extra = f" {row.get('error', '')}"
    return f"[{index}/{total}] {mark} {row['task']}{extra}"

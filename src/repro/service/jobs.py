"""The job core: one analysis request, from source text to report.

Every front end that answers an analysis question — the ``analyze``
subcommand, the ``bench`` worker processes and the ``serve`` worker
pool — runs through this module, so they cannot drift apart: the
central :mod:`~repro.analysis.registry` picks the analysis, the same
renderer produces the report text, and the same key function
addresses the persistent cache.  The differential test suite
(``tests/test_service_differential.py``) holds the server to
byte-identical output against ``analyze``; sharing this code path is
what makes that a stable property rather than a coincidence.

Since the kernel refactor the job core is fully registry-driven: both
languages (Scheme/CPS *and* Featherweight Java) flow through
:class:`JobSpec`/:func:`run_job`, and a newly registered analysis is
reachable from ``analyze``, ``submit`` and the server with no edits
here — there is no per-analysis dispatch table left.

A request is a :class:`JobSpec` (program text, analysis, context
depth, budget, report selection).  :func:`run_job` executes one spec
and always returns a row dict with ``status`` in ``ok | timeout |
error`` — it never raises, which makes it safe as a
:class:`concurrent.futures.ProcessPoolExecutor` task.

Cache-key audit
---------------

:func:`job_cache_key` must cover **every result-affecting option** of
a job: the exact source text, the analysis name, the context depth,
``simplify`` (changes the analyzed term) and ``report`` (changes the
rendered text).  Knobs that cannot change a result stay out: the
engine tier follows from the call site (:func:`run_job`), and flow
sets are always interned bitsets (:mod:`repro.analysis.interning`).
The golden, differential and interning suites hold every tier to the
generic loop's bytes, and interning to the tests' frozenset oracle.
A batch client query (``query_kind``/``query_target``) replaces the
rendered report with the pass's JSON answer, so both fields enter
the key — but only when set, so plain-job keys never carry them.
The wall-clock ``timeout`` is deliberately excluded: a completed
result does not depend on how long it was allowed to take, and
timed-out runs are never cached.  The cache schema version rides
inside :func:`repro.cache.cache_key` itself.  A regression test
(``tests/test_cache.py``) locks each of these facts down.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.analysis.clients import run_result_query, validate_query
from repro.analysis.registry import registry, run_analysis
from repro.errors import AnalysisTimeout, ReproError, UsageError
from repro.util.budget import Budget

#: The *builtin* Scheme/CPS analyses — an import-time snapshot of the
#: registry, kept as stable public tuples for test parametrization
#: and docs.  Dispatch itself (validate_job_options, run_job,
#: build_matrix, ``bench --analyses all``) always consults the live
#: registry, so analyses registered at runtime work everywhere even
#: though they do not appear here.
SCHEME_ANALYSES = registry().names("scheme")

#: The builtin Featherweight Java analyses (same snapshot caveat).
FJ_ANALYSES = registry().names("fj")

#: Report selections understood by :func:`render_reports`.
REPORT_CHOICES = ("flow", "inlining", "envs", "all")


def run_scheme_analysis(program, analysis: str, parameter: int,
                        budget: Budget | None = None,
                        tier: str | None = None,
                        obj_depth: int | None = None):
    """Dispatch one Scheme analysis via the registry.

    ``tier`` overrides the engine tier (``None``: the one-shot
    default, which never generates source — see
    :data:`~repro.analysis.engine.TIERS`)."""
    return run_analysis(analysis, program, parameter, budget,
                        language="scheme", tier=tier,
                        obj_depth=obj_depth)


def run_fj_analysis(program, analysis: str, parameter: int,
                    budget: Budget | None = None,
                    tier: str | None = None,
                    obj_depth: int | None = None):
    """Dispatch one Featherweight Java analysis via the registry
    (``tier`` as in :func:`run_scheme_analysis`)."""
    return run_analysis(analysis, program, parameter, budget,
                        language="fj", tier=tier, obj_depth=obj_depth)


def validate_job_options(analysis: str, context: int,
                         simplify: bool = False, report: str = "all"):
    """Validate the source-independent options of a job.

    Shared between :meth:`JobSpec.validate` and the CLI front ends,
    which call it *before* reading any source so that a typo fails
    fast (and never blocks on stdin).  Raises
    :class:`~repro.errors.UsageError`; returns the analysis's
    registry spec.
    """
    spec = registry().get(analysis)  # UsageError on a miss
    if isinstance(context, bool) or not isinstance(context, int) \
            or context < 0:
        raise UsageError(
            f"context depth must be a non-negative integer, got "
            f"{context!r}")
    if spec.language == "fj" and simplify:
        raise UsageError(
            "--simplify shrink-simplifies CPS terms and does not "
            "apply to Featherweight Java analyses")
    if report not in REPORT_CHOICES:
        raise UsageError(
            f"unknown report {report!r}; choose from "
            f"{', '.join(REPORT_CHOICES)}")
    if spec.language == "fj" and report != "all":
        raise UsageError(
            f"Featherweight Java analyses render a single "
            f"points-to report; --report {report!r} is Scheme-only")
    return spec


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One analysis question, as a value.

    ``timeout`` is the per-job wall-clock budget in seconds (``None``
    means unlimited from the CLI; the server substitutes its default
    budget so no request can hold a worker forever).
    """

    source: str
    analysis: str = "mcfa"
    context: int = 1
    simplify: bool = False
    report: str = "all"
    timeout: float | None = None
    #: Batch client query (see :mod:`repro.analysis.clients`): when
    #: ``query_kind`` is set the job's stdout is the pass's JSON
    #: answer instead of the rendered reports, and the row carries
    #: the answer object under ``answer``.
    query_kind: str | None = None
    query_target: str | None = None

    def validate(self) -> "JobSpec":
        """Raise :class:`~repro.errors.ReproError` on a bad field.

        Option errors (unknown analysis, bad context depth,
        Scheme-only flags on FJ analyses) raise the
        :class:`~repro.errors.UsageError` subclass so the CLI can
        exit 2 with a one-line message.
        """
        if not isinstance(self.source, str) or not self.source.strip():
            raise ReproError("job source must be non-empty program "
                             "text")
        spec = validate_job_options(self.analysis, self.context,
                                    self.simplify, self.report)
        if self.query_target is not None and self.query_kind is None:
            raise UsageError(
                "query_target is meaningless without query_kind")
        if self.query_kind is not None:
            validate_query(self.query_kind, self.query_target,
                           language=spec.language)
        if self.timeout is not None:
            if isinstance(self.timeout, bool) \
                    or not isinstance(self.timeout, (int, float)) \
                    or self.timeout <= 0:
                raise ReproError(
                    f"timeout must be a positive number of seconds, "
                    f"got {self.timeout!r}")
        return self


def job_cache_key(spec: JobSpec) -> str:
    """The persistent-cache key of one job (see the module docstring
    for the audit of what must be included)."""
    from repro.cache import cache_key
    extra = {"command": "analyze",
             "simplify": spec.simplify,
             "report": spec.report}
    if spec.query_kind is not None:
        # Only when set: every plain-job key predating the client
        # layer stays byte-identical.
        extra["query_kind"] = spec.query_kind
        extra["query_target"] = spec.query_target
    return cache_key(spec.source, spec.analysis, spec.context, extra)


def cache_payload(row: dict) -> dict:
    """The slice of a finished row worth persisting."""
    return {key: row[key]
            for key in ("stdout", "summary", "answer", "wall_seconds")
            if key in row}


def render_reports(program, result, report: str = "all") -> str:
    """The ``analyze`` output text for one result — the exact bytes
    the differential suite compares across front ends."""
    from repro.reporting import (
        environment_report, flow_report, inlining_report,
    )
    lines = [f"program: {program.stats()}"]
    if report in ("flow", "all"):
        lines += ["", flow_report(result)]
    if report in ("inlining", "all"):
        lines += ["", inlining_report(result)]
    if report in ("envs", "all"):
        lines += ["", environment_report(result)]
    return "\n".join(lines) + "\n"


def render_fj_reports(program, result) -> str:
    """The ``analyze`` output text for a Featherweight Java result."""
    from repro.reporting import fj_report
    return (f"program: {program.stats()}\n\n"
            f"{fj_report(result)}\n")


def _compile_for_job(spec: JobSpec, language: str, programs=None):
    """Compile one spec's source, through the worker's warm
    :class:`~repro.cache.ProgramCache` when given; returns
    ``(program, warm)``."""
    from repro.cache import ProgramCache
    from repro.cps.simplify import simplify_program
    from repro.scheme.cps_transform import compile_program
    program = None
    program_key = None
    if programs is not None:
        program_key = ProgramCache.key(language, spec.source,
                                       spec.simplify)
        program = programs.get(program_key)
        if program is not None:
            return program, True
    if language == "fj":
        from repro.fj import parse_fj
        program = parse_fj(spec.source)
    else:
        program = compile_program(spec.source)
        if spec.simplify:
            program = simplify_program(program)
    if programs is not None:
        programs.put(program_key, program)
    return program, False


def _check_budget(budget: Budget, timeout: float | None) -> None:
    """Time out between the front end and the analysis when the
    compile already spent the whole budget."""
    if budget.exhausted():
        raise AnalysisTimeout(
            f"analysis exceeded time budget of {timeout}s",
            elapsed=budget.elapsed)


class WorkerSessions:
    """The worker-side table of live analysis sessions.

    One per fleet worker, next to its :class:`~repro.cache.
    ProgramCache`: maps session ids to
    :class:`~repro.analysis.incremental.AnalysisSession` objects, LRU
    bounded (a result's store is memory, not disk).  A session holds
    its latest cold result and the compiled program it came from, so
    program-cache eviction never affects it.

    Every method returns a row shaped like :func:`run_job`'s — the
    fleet worker sends it back verbatim — and never raises.
    """

    def __init__(self, programs=None, capacity: int = 8):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got "
                             f"{capacity}")
        self.programs = programs
        self.capacity = capacity
        #: id → (session, report, simplify), LRU order.
        self._sessions: dict[str, tuple] = {}
        self.created = 0
        self.evicted = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def counters(self) -> dict:
        return {"open": len(self._sessions), "created": self.created,
                "evicted": self.evicted, "dropped": self.dropped}

    # -- bookkeeping -----------------------------------------------------

    def _touch(self, session_id: str) -> tuple | None:
        entry = self._sessions.pop(session_id, None)
        if entry is not None:
            self._sessions[session_id] = entry  # refresh to MRU
        return entry

    def _install(self, session_id: str, entry: tuple) -> None:
        self.drop(session_id)
        self._sessions[session_id] = entry
        while len(self._sessions) > self.capacity:
            del self._sessions[next(iter(self._sessions))]
            self.evicted += 1

    def drop(self, session_id: str) -> bool:
        if self._sessions.pop(session_id, None) is None:
            return False
        self.dropped += 1
        return True

    @staticmethod
    def _missing(session_id: str, row: dict) -> dict:
        row["status"] = "error"
        row["error"] = (f"unknown session {session_id!r} (never "
                        f"opened, expired from this worker, or lost "
                        f"to a worker death)")
        row["session_dropped"] = True  # the server unlearns the id
        return row

    # -- operations ------------------------------------------------------

    def create(self, session_id: str, spec: JobSpec) -> dict:
        """Open a session: compile, run the analysis cold, keep the
        result under *session_id*."""
        from repro.analysis.incremental import AnalysisSession
        row = {"session": session_id, "analysis": spec.analysis,
               "context": spec.context, "pid": os.getpid()}
        started = time.perf_counter()
        try:
            language = validate_job_options(
                spec.analysis, spec.context, spec.simplify,
                spec.report).language
            budget = Budget(max_seconds=spec.timeout).start()
            program, warm = _compile_for_job(spec, language,
                                             self.programs)
            row["warm"] = warm
            _check_budget(budget, spec.timeout)
            session = AnalysisSession(
                program, spec.analysis, spec.context, budget=budget)
            self._install(session_id, (session, spec.report,
                                       spec.simplify))
            self.created += 1
            row["stdout"] = render_reports(session.program,
                                           session.result, spec.report)
            row["summary"] = session.result.summary()
            row["status"] = "ok"
        except AnalysisTimeout as error:
            row["status"] = "timeout"
            row["error"] = str(error)
        except ReproError as error:
            row["status"] = "error"
            row["error"] = str(error)
        except Exception as error:  # keep the worker alive
            row["status"] = "error"
            row["error"] = f"{type(error).__name__}: {error}"
        row["wall_seconds"] = round(time.perf_counter() - started, 6)
        return row

    def edit(self, session_id: str, source: str,
             timeout: float | None) -> dict:
        """Re-analyze a session from scratch against edited
        *source*."""
        row = {"session": session_id, "pid": os.getpid()}
        started = time.perf_counter()
        entry = self._touch(session_id)
        if entry is None:
            row["wall_seconds"] = round(
                time.perf_counter() - started, 6)
            return self._missing(session_id, row)
        session, report, simplify = entry
        try:
            budget = Budget(max_seconds=timeout).start()
            program, warm = _compile_for_job(
                JobSpec(source=source, simplify=simplify), "scheme",
                self.programs)
            row["warm"] = warm
            _check_budget(budget, timeout)
            session.edit(program, budget)
            row["stdout"] = render_reports(session.program,
                                           session.result, report)
            row["summary"] = session.result.summary()
            row["steps"] = session.result.steps
            row["status"] = "ok"
        except AnalysisTimeout as error:
            # The session still holds the result of the source before
            # this edit; drop it rather than answer for a stale
            # program.
            self.drop(session_id)
            row["status"] = "timeout"
            row["error"] = str(error)
            row["session_dropped"] = True
        except ReproError as error:
            row["status"] = "error"
            row["error"] = str(error)
        except Exception as error:
            row["status"] = "error"
            row["error"] = f"{type(error).__name__}: {error}"
        row["wall_seconds"] = round(time.perf_counter() - started, 6)
        return row

    def query(self, session_id: str, kind: str,
              target: str | None) -> dict:
        """Answer one query from a session's latest result."""
        row = {"session": session_id, "pid": os.getpid()}
        started = time.perf_counter()
        entry = self._touch(session_id)
        if entry is None:
            row["wall_seconds"] = round(
                time.perf_counter() - started, 6)
            return self._missing(session_id, row)
        session = entry[0]
        try:
            row["answer"] = session.query(kind, target)
            row["session_stats"] = session.stats()
            row["status"] = "ok"
        except ReproError as error:
            row["status"] = "error"
            row["error"] = str(error)
        except Exception as error:
            row["status"] = "error"
            row["error"] = f"{type(error).__name__}: {error}"
        row["wall_seconds"] = round(time.perf_counter() - started, 6)
        return row


def run_job(spec: JobSpec, programs=None) -> dict:
    """Execute one job; always returns a row, never raises.

    This is the worker entry point: it compiles the program in the
    worker process (so front-end work parallelizes too) and runs the
    analysis under the spec's cooperative wall-clock budget.  The
    row's ``status`` is ``ok`` (with ``stdout`` and ``summary``),
    ``timeout`` or ``error`` (with ``error``).

    *programs*, when given, is a :class:`repro.cache.ProgramCache` —
    the fleet worker's warm store.  A hit skips parse/CPS/simplify
    and reuses the compiled :class:`Program` object together with the
    codegen fingerprint cached on it; the row then carries
    ``warm: True``.  Only
    such a warm caller runs the ``codegen`` tier: its generated
    module is emitted and compiled once per program and reused by
    every later job on the worker, whereas a one-shot job would pay
    that ``compile()`` for a single fixpoint — far more than the
    fixpoint itself on the cheap analyses.  One-shot calls run the
    default tier.  Warm and cold runs, on any tier, are
    byte-identical (the program is a pure value; its fingerprint
    cache only memoizes), which ``tests/test_sharding.py`` and
    ``tests/test_specialize.py`` pin; the row's ``engine_path`` says
    which loop ran.  Only successfully compiled programs are ever
    cached, so a source that fails the front end re-fails
    identically every time.
    """
    row = {"analysis": spec.analysis, "context": spec.context,
           "pid": os.getpid()}
    started = time.perf_counter()
    try:
        # run_job is authoritative even for callers that skipped
        # spec.validate(): option errors (unknown analysis,
        # Scheme-only flags on an FJ analysis) become error rows
        # rather than being silently ignored.
        language = validate_job_options(
            spec.analysis, spec.context, spec.simplify,
            spec.report).language
        # The budget clock starts before the front end so compile and
        # simplify time count against the job's allowance; the check
        # is cooperative (between phases and per analysis step), so a
        # pathological source can overrun the budget by one compile —
        # bounded in the service by the protocol's frame size cap.
        budget = Budget(max_seconds=spec.timeout).start()
        program, warm = _compile_for_job(spec, language, programs)
        if programs is not None:
            row["warm"] = warm
        _check_budget(budget, spec.timeout)
        tier = "codegen" if programs is not None else None
        if language == "fj":
            result = run_fj_analysis(
                program, spec.analysis, spec.context, budget, tier=tier)
            row["stdout"] = render_fj_reports(program, result)
        else:
            result = run_scheme_analysis(
                program, spec.analysis, spec.context, budget, tier=tier)
            row["stdout"] = render_reports(program, result,
                                           spec.report)
        row["engine_path"] = result.engine_path
        if spec.query_kind is not None:
            import json
            answer = run_result_query(result, spec.query_kind,
                                      spec.query_target)
            row["answer"] = answer
            row["stdout"] = json.dumps(answer, indent=2,
                                       sort_keys=True) + "\n"
        row["summary"] = result.summary()
        row["status"] = "ok"
    except AnalysisTimeout as error:
        row["status"] = "timeout"
        row["error"] = str(error)
    except ReproError as error:
        row["status"] = "error"
        row["error"] = str(error)
    except Exception as error:  # keep the pool alive
        row["status"] = "error"
        row["error"] = f"{type(error).__name__}: {error}"
    row["wall_seconds"] = round(time.perf_counter() - started, 6)
    return row

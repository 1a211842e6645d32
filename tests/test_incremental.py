"""Editable sessions: every session report is a cold report.

The contract under test: an
:class:`~repro.analysis.incremental.AnalysisSession` holds the latest
cold result of its program, so the rows a worker's session table
returns — on open and after every edit — equal, byte for byte, what
a one-shot :func:`~repro.service.jobs.run_job` of the same source
returns, across every session analysis and both value domains.
Point queries answer from that result before and after an edit.

Edit scripts are applied structurally (parse → transform → unparse)
so the same script runs over hand-written suite programs and random
generator output alike: bump a literal, insert / delete / swap a
binding, eta-wrap the final call, plus the no-op edit.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.incremental import SESSION_ANALYSES, AnalysisSession
from repro.cache import ProgramCache
from repro.errors import AnalysisTimeout, UsageError
from repro.scheme.cps_transform import compile_program
from repro.scheme.sexp import Symbol, parse_sexps, write_sexp
from repro.service.jobs import JobSpec, WorkerSessions, run_job
from repro.util.budget import Budget
from shared_corpus import small_sources

SOURCE = "(define (id x) x)\n(+ (id 3) (id 4))\n"


# -- structural edit scripts -------------------------------------------------

def _to_lists(datum):
    if isinstance(datum, (tuple, list)):
        return [_to_lists(item) for item in datum]
    return datum


def _unparse(forms) -> str:
    return "\n".join(write_sexp(form) for form in forms)


def _int_spots(forms) -> list:
    spots = []

    def walk(node):
        if not isinstance(node, list):
            return
        for index, child in enumerate(node):
            if isinstance(child, bool):
                continue
            if isinstance(child, int):
                spots.append((node, index))
            else:
                walk(child)

    walk(forms)
    return spots


def edit_noop(forms):
    return forms


def edit_bump_literal(forms):
    """+1 the last integer literal in the program."""
    spots = _int_spots(forms)
    if spots:
        parent, index = spots[-1]
        parent[index] += 1
    return forms


def edit_insert_binding(forms):
    """Wrap the final expression in a fresh (unused) let binding."""
    forms[-1] = [Symbol("let"), [[Symbol("zzq"), 41]], forms[-1]]
    return forms


def edit_delete_binding(forms):
    """Undo :func:`edit_insert_binding`: drop the zzq let again."""
    last = forms[-1]
    if isinstance(last, list) and last[:1] == [Symbol("let")] \
            and last[1] == [[Symbol("zzq"), 41]]:
        forms[-1] = last[2]
    return forms


def _is_function_define(form) -> bool:
    return isinstance(form, list) and len(form) >= 2 \
        and form[0] == Symbol("define") and isinstance(form[1], list)


def edit_swap_defines(forms):
    """Swap the first two function defines (a pure reordering)."""
    definitions = [index for index, form in enumerate(forms)
                   if _is_function_define(form)]
    if len(definitions) >= 2:
        first, second = definitions[0], definitions[1]
        forms[first], forms[second] = forms[second], forms[first]
    return forms


def edit_eta_wrap(forms):
    """Route the final expression through an identity redex."""
    forms[-1] = [[Symbol("lambda"), [Symbol("ewz")], Symbol("ewz")],
                 forms[-1]]
    return forms


EDIT_SCRIPT = [edit_noop, edit_bump_literal, edit_insert_binding,
               edit_delete_binding, edit_swap_defines, edit_eta_wrap]


def apply_edit(source: str, script) -> str:
    return _unparse(script(_to_lists(parse_sexps(source))))


# -- the differential harness ------------------------------------------------

def _cold_row(source: str, analysis: str, values: str) -> dict:
    return run_job(JobSpec(source=source, analysis=analysis, context=1,
                           values=values))


def _assert_same_row(session_row: dict, cold_row: dict) -> None:
    assert session_row["status"] == cold_row["status"] == "ok"
    assert session_row["stdout"] == cold_row["stdout"]
    session_summary = dict(session_row["summary"])
    cold_summary = dict(cold_row["summary"])
    session_summary.pop("elapsed")
    cold_summary.pop("elapsed")
    assert session_summary == cold_summary


def _run_script(source: str, analysis: str, plain: bool) -> None:
    """Open a session on *source*, apply every edit script step in
    turn, and hold each row to a one-shot job of the same text."""
    values = "plain" if plain else "interned"
    sessions = WorkerSessions(programs=ProgramCache())
    opened = sessions.create("s", JobSpec(source=source,
                                          analysis=analysis, context=1,
                                          values=values))
    _assert_same_row(opened, _cold_row(source, analysis, values))
    text = source
    for script in EDIT_SCRIPT:
        text = apply_edit(text, script)
        edited = sessions.edit("s", text, None)
        _assert_same_row(edited, _cold_row(text, analysis, values))
        assert edited["steps"] == edited["summary"]["steps"]


# -- tests -------------------------------------------------------------------

class TestSessionBasics:
    def test_non_session_analysis_is_a_usage_error(self):
        with pytest.raises(UsageError, match="does not support"):
            AnalysisSession(compile_program(SOURCE), "pushdown", 0)

    @pytest.mark.parametrize("analysis", SESSION_ANALYSES)
    def test_initial_result_matches_registry_run(self, analysis):
        from repro.analysis.registry import run_analysis
        parameter = 0 if analysis == "zero" else 1
        program = compile_program(SOURCE)
        session = AnalysisSession(program, analysis, parameter)
        direct = run_analysis(analysis, program, parameter)
        want = dict(direct.summary())
        got = dict(session.result.summary())
        for summary in (want, got):
            summary.pop("elapsed", None)
        assert got == want
        assert session.result.engine_path == direct.engine_path

    def test_session_counters(self):
        session = AnalysisSession(compile_program(SOURCE), "kcfa", 1)
        session.edit(compile_program(SOURCE))
        session.edit(compile_program("(+ 1 2)"))
        assert session.edits == 2
        stats = session.stats()
        assert stats["edits"] == 2
        assert stats["configs"] == len(session.result.configs)
        assert stats["store_entries"] == len(session.result.store)

    def test_timed_out_edit_keeps_the_previous_result(self):
        session = AnalysisSession(compile_program(SOURCE), "kcfa", 1)
        before = session.result
        with pytest.raises(AnalysisTimeout):
            session.edit(compile_program(wide_source(arms=40)),
                         Budget(max_steps=1))
        assert session.result is before
        assert session.program is before.program


class TestDifferential:
    """Session rows ≡ one-shot rows over ``small_sources()`` ×
    ``SESSION_ANALYSES`` × both value domains; the three tests cover
    that product between them."""

    @pytest.mark.parametrize("analysis", SESSION_ANALYSES)
    @pytest.mark.parametrize("plain", [False, True],
                             ids=["interned", "plain"])
    def test_full_matrix_on_eta(self, analysis, plain):
        _run_script(small_sources()["eta"], analysis, plain)

    @pytest.mark.parametrize("name", sorted(small_sources()))
    def test_corpus_under_kcfa(self, name):
        _run_script(small_sources()[name], "kcfa", False)

    @pytest.mark.parametrize("name,plain,analysis", [
        pytest.param(name, plain, analysis,
                     id=f"{name}-{'plain' if plain else 'interned'}"
                        f"-{analysis}")
        for name in sorted(set(small_sources()) - {"eta"})
        for plain in (False, True)
        for analysis in SESSION_ANALYSES
        if plain or analysis != "kcfa"])
    def test_rest_of_the_corpus(self, name, plain, analysis):
        _run_script(small_sources()[name], analysis, plain)


def wide_source(arms: int = 12, target: int = 3) -> str:
    """Many dataflow-isolated arms (a program with many
    configurations)."""
    defines = "\n".join(
        f"(define (g{i} n) (if (= n 0) {i} (g{i} (- n 1))))"
        for i in range(arms))
    call = "(list " + " ".join(f"(g{i} {target})"
                               for i in range(arms)) + ")"
    return defines + "\n" + call


def _point_answers(session: AnalysisSession) -> list:
    answers = [session.query("value-of", name)
               for name in ("x", "id", "nope")]
    for label in sorted(session.program.lams_by_label):
        answers.append(session.query("call-sites-of", str(label)))
        answers.append(session.query("escaping", str(label)))
    return answers


class TestQueries:
    def _session(self, source: str = SOURCE) -> AnalysisSession:
        return AnalysisSession(compile_program(source), "kcfa", 1)

    def test_value_of_matches_uniquified_binders(self):
        answer = self._session().query("value-of", "x")
        assert answer["query"] == "value-of"
        assert answer["contexts"] >= 1
        assert answer["variables"]
        assert all(var == "x" or var.startswith("x%")
                   for var in answer["variables"])
        assert set(answer["values"]) == {"3", "4"}

    def test_value_of_unknown_variable_is_empty_not_an_error(self):
        answer = self._session().query("value-of", "nope")
        assert answer["contexts"] == 0
        assert answer["values"] == []

    def test_call_sites_of_finds_both_sites(self):
        session = self._session()
        sites = set()
        for label in session.program.lams_by_label:
            answer = session.query("call-sites-of", str(label))
            assert answer["probed"] >= 1
            sites |= set(answer["sites"])
        # The id lambda is applied twice; both call sites are calls
        # of the program.
        assert len(sites) >= 2
        assert sites <= set(session.program.calls_by_label)

    def test_escaping_sees_heap_escape(self):
        session = self._session("(cons (lambda (z) z) 1)\n")
        answers = [session.query("escaping", str(label))
                   for label in session.program.lams_by_label]
        assert any(a["to_heap"] for a in answers)
        assert all(a["escaping"] for a in answers if a["to_heap"])

    def test_non_escaping_lambda(self):
        session = self._session()
        # `id` is called and returns an integer; it reaches neither
        # the halt continuation nor a heap cell.
        user_lams = [label for label, lam
                     in session.program.lams_by_label.items()
                     if lam.is_user]
        answers = [session.query("escaping", str(label))
                   for label in user_lams]
        assert answers and not any(a["escaping"] for a in answers)

    def test_queries_answer_from_the_warm_state_after_an_edit(self):
        session = self._session()
        session.edit(compile_program(SOURCE.replace("4", "7")))
        answer = session.query("value-of", "x")
        assert set(answer["values"]) == {"3", "7"}

    @pytest.mark.parametrize("analysis", SESSION_ANALYSES)
    def test_point_queries_match_a_fresh_session_around_an_edit(
            self, analysis):
        """Before and after an edit, every point query answers what a
        session freshly opened on the same source answers."""
        edited = SOURCE.replace("(id 4)", "(cons (lambda (z) z) 4)")
        session = AnalysisSession(compile_program(SOURCE), analysis, 1)
        assert _point_answers(session) == _point_answers(
            AnalysisSession(compile_program(SOURCE), analysis, 1))
        session.edit(compile_program(edited))
        assert _point_answers(session) == _point_answers(
            AnalysisSession(compile_program(edited), analysis, 1))

    def test_unknown_kind_and_bad_label_are_usage_errors(self):
        session = self._session()
        with pytest.raises(UsageError, match="unknown query"):
            session.query("types-of", "x")
        with pytest.raises(UsageError, match="not a lambda label"):
            session.query("escaping", "id")


class TestWorkerSessions:
    def _spec(self, source: str = SOURCE, **overrides) -> JobSpec:
        fields = dict(source=source, analysis="kcfa", context=1,
                      timeout=60.0)
        fields.update(overrides)
        return JobSpec(**fields)

    def test_create_edit_query_rows(self):
        programs = ProgramCache(capacity=4)
        sessions = WorkerSessions(programs=programs)
        row = sessions.create("s1", self._spec())
        assert row["status"] == "ok"
        assert row["stdout"].startswith("program:")
        row = sessions.edit("s1", SOURCE.replace("4", "5"), 60.0)
        assert row["status"] == "ok"
        assert row["steps"] >= 1
        assert row["warm"] is False  # a new source compiles once
        row = sessions.query("s1", "value-of", "x")
        assert row["status"] == "ok"
        assert set(row["answer"]["values"]) == {"3", "5"}
        assert row["session_stats"]["edits"] == 1
        assert sessions.counters() == {
            "open": 1, "created": 1, "evicted": 0, "dropped": 0}

    def test_unknown_session_row(self):
        sessions = WorkerSessions()
        row = sessions.edit("ghost", SOURCE, 60.0)
        assert row["status"] == "error"
        assert "unknown session" in row["error"]
        assert row["session_dropped"] is True

    def test_lru_eviction_forgets_the_oldest_session(self):
        sessions = WorkerSessions(programs=ProgramCache(capacity=4),
                                  capacity=1)
        sessions.create("s1", self._spec())
        sessions.create("s2", self._spec(source="(+ 1 2)\n"))
        assert sessions.counters() == {
            "open": 1, "created": 2, "evicted": 1, "dropped": 0}
        row = sessions.query("s1", "value-of", "x")
        assert row["status"] == "error"
        assert "unknown session" in row["error"]

    def test_program_cache_eviction_leaves_sessions_intact(self):
        """A session keeps its own program and result: evicting its
        source from the worker's program cache changes nothing."""
        programs = ProgramCache(capacity=1)
        sessions = WorkerSessions(programs=programs)
        sessions.create("s1", self._spec())
        sessions.create("s2", self._spec(source="(+ 1 2)\n"))
        assert programs.as_dict()["evictions"] == 1
        row = sessions.query("s1", "value-of", "x")
        assert set(row["answer"]["values"]) == {"3", "4"}
        edited = SOURCE.replace("4", "6")
        row = sessions.edit("s1", edited, 60.0)
        assert row["stdout"] == run_job(self._spec(source=edited))[
            "stdout"]

    def test_bad_analysis_never_installs_a_session(self):
        sessions = WorkerSessions()
        row = sessions.create("s1", self._spec(analysis="pushdown",
                                               context=0))
        assert row["status"] == "error"
        assert "does not support sessions" in row["error"]
        assert len(sessions) == 0

    def test_zero_session_reports_like_a_cold_run(self, tmp_path,
                                                  capsys):
        """A depth-1 ``zero`` session names its analysis and depth
        from the registry, as a cold run does: ``0CFA(0)``."""
        from repro.__main__ import main
        sessions = WorkerSessions()
        opened = sessions.create("z", self._spec(analysis="zero"))
        assert opened["status"] == "ok"
        edited = SOURCE.replace("4", "5")
        row = sessions.edit("z", edited, 60.0)
        assert row["status"] == "ok"
        path = tmp_path / "edited.scm"
        path.write_text(edited, encoding="utf-8")
        assert main(["analyze", str(path), "--analysis", "zero",
                     "-n", "1"]) == 0
        assert row["stdout"] == capsys.readouterr().out

    def test_near_zero_timeout_drops_the_session(self):
        before = wide_source(arms=40, target=3)
        after = before.replace("(g39 3)", "(g39 4)")
        sessions = WorkerSessions(programs=ProgramCache())
        assert sessions.create("s1", self._spec(source=before))[
            "status"] == "ok"
        started = time.perf_counter()
        row = sessions.edit("s1", after, 1e-9)
        assert time.perf_counter() - started < 1.0
        assert row["status"] == "timeout"
        assert row["session_dropped"] is True
        assert len(sessions) == 0
        assert sessions.counters()["dropped"] == 1

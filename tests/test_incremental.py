"""Incremental re-analysis: alignment, resume, and the differential.

The contract under test is the tentpole one: a warm
:class:`~repro.analysis.incremental.AnalysisSession` that absorbs an
edit must end in *exactly* the state a from-scratch run over the same
aligned program produces — byte-identical rendered reports, equal
stores, equal reachable-configuration sets — across every session
analysis and both value domains.  On top of that, the whole point:
an edit that touches one dataflow-isolated literal must re-converge
in strictly fewer engine steps than the from-scratch run.

Edit scripts are applied structurally (parse → transform → unparse)
so the same script runs over hand-written suite programs and random
generator output alike: bump a literal, insert / delete / swap a
binding, eta-wrap the final call, plus the no-op edit.
"""

from __future__ import annotations

import pytest

from repro.analysis.incremental import (
    KEPT_RATIO_FLOOR, SESSION_ANALYSES, AnalysisSession, align_program,
    clone_program,
)
from repro.cache import ProgramCache
from repro.cps.syntax import iter_calls
from repro.errors import UsageError
from repro.scheme.cps_transform import compile_program
from repro.scheme.sexp import Symbol, parse_sexps, write_sexp
from repro.service.jobs import JobSpec, WorkerSessions, render_reports
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

def _cold_reference(session: AnalysisSession) -> AnalysisSession:
    """A from-scratch session over the warm session's *aligned*
    program — same labels, so reports are byte-comparable."""
    return AnalysisSession(clone_program(session.program),
                           session.analysis, session.parameter,
                           plain=session.plain)


def _canon_config(config):
    """A structural key for a configuration: labels and times only.

    Calls and lambdas compare by identity, and the cold reference
    runs over a *clone* of the warm session's program, so object
    equality can never hold across the two — label equality is the
    meaningful contract."""
    benv = getattr(config, "benv", None)
    if benv is not None:
        return (config.call.label, tuple(benv.items()), config.time)
    return (config.call.label, config.env)


def _canon_store(session: AnalysisSession) -> dict:
    # Value reprs are label-based (`clo[5]{f%0→()}`), not
    # identity-based, so they compare structurally across clones.
    return {addr: frozenset(repr(value) for value in flow)
            for addr, flow in session.store.items()}


def _assert_equivalent(warm: AnalysisSession,
                       cold: AnalysisSession) -> None:
    assert _canon_store(warm) == _canon_store(cold)
    assert {_canon_config(c) for c in warm.state.seen} \
        == {_canon_config(c) for c in cold.state.seen}
    warm_summary = dict(warm.result.summary())
    cold_summary = dict(cold.result.summary())
    warm_summary.pop("elapsed", None)
    cold_summary.pop("elapsed", None)
    warm_steps = warm_summary.pop("steps", None)
    cold_steps = cold_summary.pop("steps", None)
    assert warm_summary == cold_summary
    assert warm_steps is not None and cold_steps is not None
    assert render_reports(warm.program, warm.result, "all") \
        == render_reports(cold.program, cold.result, "all")


def _run_script(source: str, analysis: str, plain: bool) -> list:
    session = AnalysisSession(compile_program(source), analysis, 1,
                              plain=plain)
    outcomes = []
    text = source
    for script in EDIT_SCRIPT:
        text = apply_edit(text, script)
        outcome = session.edit(compile_program(text))
        _assert_equivalent(session, _cold_reference(session))
        outcomes.append(outcome)
    return outcomes


# -- tests -------------------------------------------------------------------

class TestAlignment:
    def _programs(self, old_source: str, new_source: str):
        old = compile_program(old_source)
        labels = [1000]

        def fresh():
            labels[0] += 1
            return labels[0]

        diff = align_program(old, compile_program(new_source).root,
                             fresh)
        return old, diff

    def test_identical_source_aligns_perfectly(self):
        old, diff = self._programs(SOURCE, SOURCE)
        assert diff.kept_ratio == 1.0
        assert not diff.dirty_labels
        assert not diff.retired_labels
        assert diff.fresh_nodes == 0
        assert diff.program.root is old.root

    def test_literal_edit_patches_in_place(self):
        """A one-literal change keeps every label and object identity
        — only the enclosing call is marked dirty."""
        old = compile_program(SOURCE)
        old_calls = {call.label: call for call in iter_calls(old.root)}
        diff = align_program(
            old, compile_program(SOURCE.replace("4", "5")).root,
            iter(range(1000, 2000)).__next__)
        assert diff.kept_ratio == 1.0
        assert not diff.retired_labels
        assert len(diff.dirty_labels) == 1
        for label, call in diff.program.calls_by_label.items():
            assert old_calls[label] is call  # identity survived

    def test_structural_change_retires_labels(self):
        _, diff = self._programs(
            SOURCE, "(define (id x) (+ x 0))\n(+ (id 3) (id 4))\n")
        assert diff.fresh_nodes > 0
        assert diff.retired_labels
        assert 0 < diff.kept_ratio < 1.0

    def test_clone_is_independent(self):
        program = compile_program(SOURCE)
        clone = clone_program(program)
        assert clone.root is not program.root
        assert set(clone.calls_by_label) == set(program.calls_by_label)
        assert set(clone.lams_by_label) == set(program.lams_by_label)
        # Editing a session built on the clone must not reach the
        # original object (the worker's shared cache entry).
        session = AnalysisSession(clone, "kcfa", 1)
        session.edit(compile_program(SOURCE.replace("3", "9")))
        original_calls = {call.label: call
                          for call in iter_calls(program.root)}
        for label, call in original_calls.items():
            assert program.calls_by_label[label] is call


class TestSessionBasics:
    def test_non_session_analysis_is_a_usage_error(self):
        with pytest.raises(UsageError, match="does not support"):
            AnalysisSession(compile_program(SOURCE), "pushdown", 0)

    @pytest.mark.parametrize("analysis", SESSION_ANALYSES)
    def test_initial_result_matches_registry_run(self, analysis):
        from repro.analysis.registry import run_analysis
        parameter = 0 if analysis == "zero" else 1
        program = compile_program(SOURCE)
        session = AnalysisSession(clone_program(program), analysis,
                                  parameter)
        direct = run_analysis(analysis, program, parameter)
        want = dict(direct.summary())
        got = dict(session.result.summary())
        for summary in (want, got):
            summary.pop("elapsed", None)
        assert got == want

    def test_noop_edit_resumes_in_one_step(self):
        session = AnalysisSession(compile_program(SOURCE), "kcfa", 1)
        outcome = session.edit(compile_program(SOURCE))
        assert outcome.mode == "resumed"
        assert outcome.affected == 0
        assert outcome.cleared == 0
        # Only the boot seed runs; it re-derives known facts and the
        # worklist drains immediately.
        assert outcome.result.steps == 1

    def test_invasive_edit_falls_back_to_scratch(self):
        session = AnalysisSession(compile_program(SOURCE), "kcfa", 1)
        outcome = session.edit(compile_program(
            "(define (f a b) (if a b (f b a)))\n"
            "(define (g c) (f c #t))\n(g #f)\n"))
        assert outcome.mode == "scratch"
        assert "survived" in outcome.reason
        assert outcome.kept_ratio < KEPT_RATIO_FLOOR
        _assert_equivalent(session, _cold_reference(session))

    def test_session_counters(self):
        session = AnalysisSession(compile_program(SOURCE), "kcfa", 1)
        session.edit(compile_program(SOURCE))
        session.edit(compile_program("(+ 1 2)"))
        assert session.edits == 2
        assert session.resumed == 1
        assert session.scratch == 1


class TestDifferential:
    """Warm resume ≡ from-scratch, byte for byte, store for store."""

    @pytest.mark.parametrize("analysis", SESSION_ANALYSES)
    @pytest.mark.parametrize("plain", [False, True],
                             ids=["interned", "plain"])
    def test_full_matrix_on_eta(self, analysis, plain):
        self._check(small_sources()["eta"], analysis, plain)

    @pytest.mark.parametrize("name", sorted(small_sources()))
    def test_corpus_under_kcfa(self, name):
        self._check(small_sources()[name], "kcfa", False)

    def _check(self, source: str, analysis: str, plain: bool):
        outcomes = _run_script(source, analysis, plain)
        # The no-op head of the script must take the warm path; the
        # differential above already proved every step exact.
        assert outcomes[0].mode == "resumed"


def wide_source(arms: int = 12, target: int = 3) -> str:
    """Many dataflow-isolated arms: editing the last one dirties an
    O(1) slice of the program."""
    defines = "\n".join(
        f"(define (g{i} n) (if (= n 0) {i} (g{i} (- n 1))))"
        for i in range(arms))
    call = "(list " + " ".join(f"(g{i} {target})"
                               for i in range(arms)) + ")"
    return defines + "\n" + call


class TestStepSavings:
    """The acceptance criterion: an O(1)-dirty edit re-converges with
    strictly fewer engine steps than from-scratch."""

    @pytest.mark.parametrize("analysis", SESSION_ANALYSES)
    def test_last_arm_edit_beats_scratch(self, analysis):
        before = wide_source(arms=12, target=3)
        after = before.replace("(g11 3)", "(g11 4)")
        assert after != before
        session = AnalysisSession(compile_program(before), analysis, 1)
        outcome = session.edit(compile_program(after))
        assert outcome.mode == "resumed"
        cold = _cold_reference(session)
        _assert_equivalent(session, cold)
        assert outcome.result.steps < cold.result.steps
        # The damage stayed local: far fewer addresses were cleared
        # than the warm store holds.
        assert 0 < outcome.cleared < len(cold.store) / 2


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
        assert row["mode"] == "scratch"
        assert row["stdout"].startswith("program:")
        assert programs.pinned() == 1
        row = sessions.edit("s1", SOURCE.replace("4", "5"), 60.0)
        assert row["status"] == "ok"
        assert row["mode"] == "resumed"
        assert row["steps"] >= 1
        assert programs.pinned() == 1  # pin moved to the new key
        row = sessions.query("s1", "value-of", "x")
        assert row["status"] == "ok"
        assert set(row["answer"]["values"]) == {"3", "5"}
        counters = sessions.counters()
        assert counters["open"] == 1
        assert counters["resumed"] == 1

    def test_unknown_session_row(self):
        sessions = WorkerSessions()
        row = sessions.edit("ghost", SOURCE, 60.0)
        assert row["status"] == "error"
        assert "unknown session" in row["error"]
        assert row["session_dropped"] is True

    def test_lru_eviction_releases_the_pin(self):
        programs = ProgramCache(capacity=4)
        sessions = WorkerSessions(programs=programs, capacity=1)
        sessions.create("s1", self._spec())
        sessions.create("s2", self._spec(source="(+ 1 2)\n"))
        assert sessions.counters() == {
            "open": 1, "created": 2, "evicted": 1, "dropped": 0,
            "resumed": 0, "scratch": 0}
        assert programs.pinned() == 1  # s1's pin was released
        row = sessions.query("s1", "value-of", "x")
        assert row["status"] == "error"
        assert "unknown session" in row["error"]

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

    def test_near_zero_timeout_bounds_the_render_pass(self):
        """The resumed fixpoint of this edit is shorter than the
        budget's check interval, so only the render pass — which
        re-steps every reachable configuration — can notice the
        expired budget; it must, and promptly."""
        import time
        from repro.util.budget import Budget
        before = wide_source(arms=40, target=3)
        after = before.replace("(g39 3)", "(g39 4)")
        unbounded = AnalysisSession(compile_program(before), "kcfa", 1)
        outcome = unbounded.edit(compile_program(after))
        assert outcome.mode == "resumed"
        interval = Budget().check_every
        assert outcome.result.steps < interval \
            < outcome.result.steps + len(unbounded.state.seen)
        sessions = WorkerSessions()
        assert sessions.create("s1", self._spec(source=before))[
            "status"] == "ok"
        started = time.perf_counter()
        row = sessions.edit("s1", after, 1e-9)
        assert time.perf_counter() - started < 2.0
        assert row["status"] == "timeout"
        assert row["session_dropped"] is True
        assert len(sessions) == 0

"""The pushdown summary rep: precision pins, containment, soundness.

Four families of checks on the ``pushdown`` analysis (the kernel's
:class:`~repro.analysis.kernel.SummaryEnv` rep):

* **precision pins** — the paper's §6 identity example with exact
  points-to sets: entry summaries keep ``(id 3)`` and ``(id 4)``
  apart where 0CFA merges them, and keep them apart through an
  eta-expanded wrapper that defeats k-CFA at k = 1 (one more wrapper
  defeats any fixed k; the summary rep has no k to defeat);
* **containment differential** — on every §6.2 suite program the
  pushdown flow is contained in shared-env k-CFA at k = 0, and at
  k = 1 everywhere except the documented heap-capture leak (see
  :data:`KNOWN_HEAP_LEAK_1CFA`);
* **α-containment soundness** — against the concrete stack-policy
  machine on the whole suite and on generated random programs, via
  :func:`~repro.analysis.abstraction.check_summary_soundness`;
* **cost envelope** — the ``worst<n>`` ladder that is exponential for
  k-CFA stays *linear* in reachable configurations, and the
  machinery stays honest (the specializer declines the rep, plain
  and interned domains agree byte for byte).
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro import compile_program
from repro.analysis.abstraction import check_summary_soundness
from repro.analysis.domains import (
    AConst, APair, BASIC, FClo, KClo, SClo, SCont,
)
from repro.analysis.registry import registry, run_analysis
from repro.benchsuite.programs import BY_NAME, SUITE
from repro.concrete import run_flat
from repro.generators.random_programs import random_program
from repro.generators.worstcase import worst_case_program
from repro.service.jobs import render_reports
from repro.util.gensym import GensymFactory

SUITE_NAMES = tuple(program.name for program in SUITE)

#: Suite programs where pushdown ⊆ kcfa(1) does *not* hold.  CFA2 and
#: 1CFA are incomparable: the summary rep gives heap-escaping bindings
#: (variables captured by nested lambdas — ``eta`` is built of
#: curry/compose combinators, i.e. of captures) a single context,
#: while kcfa(1)'s shared environments keep captured bindings apart by
#: binding time.  ``test_eta_leak_is_exactly_the_heap`` pins the other
#: side of the trade so this set cannot rot silently.
KNOWN_HEAP_LEAK_1CFA = frozenset({"eta"})

#: The paper's §6 identity example.
IDENTITY = ("(define (id x) x)"
            " (let* ((a (id 3)) (b (id 4))) (cons a b))")

#: The same example eta-expanded once: both ``id`` applications now
#: happen at the *same* call site inside ``apply1``, so a k = 1
#: call-site window merges them — the §6 \"one intervening call per
#: rung\" story in its smallest form.
WRAPPED = ("(define (id x) x)"
           " (define (apply1 f v) (f v))"
           " (let* ((a (apply1 id 3)) (b (apply1 id 4)))"
           "   (cons a b))")


@lru_cache(maxsize=None)
def _suite_program(name: str):
    return compile_program(BY_NAME[name].source)


@lru_cache(maxsize=None)
def _pushdown(name: str):
    return run_analysis("pushdown", _suite_program(name), 1)


def _proj(values):
    """Forget context details so flows from different env reps become
    comparable: closures by lambda label, pairs by field names."""
    out = set()
    for value in values:
        if isinstance(value, (KClo, FClo, SClo, SCont)):
            out.add(("lam", value.lam.label))
        elif isinstance(value, AConst):
            out.add(("const", type(value.datum).__name__,
                     repr(value.datum)))
        elif value is BASIC:
            out.add("basic")
        elif isinstance(value, APair):
            out.add(("pair", value.car[0], value.cdr[0]))
    return out


def _leaks(finer, coarser, program):
    """Names where *finer*'s flow is NOT contained in *coarser*'s."""
    bad = []
    for name in sorted(program.variables):
        extra = _proj(finer.flow_of(name)) - _proj(coarser.flow_of(name))
        if extra:
            bad.append((name, sorted(map(repr, extra))[:3]))
    if not _proj(finer.halt_values) <= _proj(coarser.halt_values):
        bad.append(("HALT", None))
    return bad


def _flows_by_base(program, result, bases):
    """Union flows keyed by pre-gensym base name."""
    flows: dict = {}
    for name in program.variables:
        base = GensymFactory.base_of(name)
        if base in bases:
            flows.setdefault(base, set()).update(result.flow_of(name))
    return flows


# -- precision pins (§6 identity) -----------------------------------------


class TestPrecisionPins:
    def test_identity_returns_stay_apart(self):
        program = compile_program(IDENTITY)
        result = run_analysis("pushdown", program, 1)
        flows = _flows_by_base(program, result, ("a", "b", "x", "id"))
        assert flows["a"] == {AConst(3)}
        assert flows["b"] == {AConst(4)}
        # The parameter itself flows both — per *entry*, not merged
        # into one context:
        assert flows["x"] == {AConst(3), AConst(4)}
        assert all(isinstance(value, SClo) for value in flows["id"])
        # Two abstract entries of id: one per call edge.
        (id_label,) = {value.lam.label for value in flows["id"]}
        assert len(result.entries[id_label]) == 2

    def test_zero_cfa_merges_the_same_example(self):
        program = compile_program(IDENTITY)
        result = run_analysis("zero", program, 1)
        flows = _flows_by_base(program, result, ("a", "b"))
        assert flows["a"] == flows["b"] == {AConst(3), AConst(4)}

    def test_wrapper_defeats_the_window_not_the_summaries(self):
        """One eta-expansion pushes the distinction out of kcfa(1)'s
        window; entry summaries are keyed on arguments, not windows,
        so pushdown needs no extra budget (and kcfa needs k = 2)."""
        program = compile_program(WRAPPED)
        separated = {"a": {AConst(3)}, "b": {AConst(4)}}
        merged = {"a": {AConst(3), AConst(4)},
                  "b": {AConst(3), AConst(4)}}
        for analysis, parameter, expected in (
                ("pushdown", 1, separated),
                ("kcfa", 1, merged),
                ("kcfa", 2, separated)):
            result = run_analysis(analysis, program, parameter)
            flows = _flows_by_base(program, result, ("a", "b"))
            assert flows == expected, (analysis, parameter)


# -- containment differential ---------------------------------------------


class TestContainment:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_contained_in_0cfa(self, name):
        program = _suite_program(name)
        coarser = run_analysis("kcfa", program, 0)
        assert not _leaks(_pushdown(name), coarser, program)

    @pytest.mark.parametrize(
        "name", [name for name in SUITE_NAMES
                 if name not in KNOWN_HEAP_LEAK_1CFA])
    def test_contained_in_1cfa(self, name):
        program = _suite_program(name)
        coarser = run_analysis("kcfa", program, 1)
        assert not _leaks(_pushdown(name), coarser, program)

    def test_eta_leak_is_exactly_the_heap(self):
        """The documented k = 1 exception, pinned from both sides:
        on ``eta`` kcfa(1) dominates pushdown (it is contained in it
        everywhere), and pushdown really does leak — if a future
        precision change empties the leak, this test says to move
        ``eta`` into the plain containment set above."""
        program = _suite_program("eta")
        pushdown = _pushdown("eta")
        kcfa1 = run_analysis("kcfa", program, 1)
        assert not _leaks(kcfa1, pushdown, program), \
            "kcfa(1) no longer contained in pushdown on eta"
        leaks = _leaks(pushdown, kcfa1, program)
        assert leaks, ("pushdown ⊆ kcfa(1) now holds on eta — "
                       "remove it from KNOWN_HEAP_LEAK_1CFA")
        # Note the leak is *downstream* of the heap, never at it: a
        # heap binder's union flow agrees between the two analyses by
        # construction (both join over all contexts); what grows is
        # the flow of stack binders computed from reads of merged
        # heap values.  kcfa(1)'s containment in pushdown above is
        # the evidence that call/return matching itself is exact —
        # the trade is confined to captures.


# -- α-containment soundness ----------------------------------------------


class TestSoundness:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_sound_on_the_suite(self, name):
        concrete = run_flat(_suite_program(name), record_trace=True,
                            env_policy="stack")
        report = check_summary_soundness(_pushdown(name), concrete)
        assert report, (name, report.violations[:3])
        assert report.states_checked and report.bindings_checked

    @pytest.mark.parametrize("seed", (1, 5, 9, 13, 23, 29, 41, 57,
                                      71, 91, 104, 131))
    def test_sound_on_random_programs(self, seed):
        program = random_program(seed, 3)
        concrete = run_flat(program, record_trace=True,
                            env_policy="stack")
        result = run_analysis("pushdown", program, 1)
        report = check_summary_soundness(result, concrete)
        assert report, (seed, report.violations[:3])


# -- cost envelope ---------------------------------------------------------


class TestCost:
    def test_worst_ladder_is_linear(self):
        """The VH-M ``worst<n>`` term family is exponential for
        shared-env k-CFA (k >= 1); the summary rep's env-less user
        closures keep it to a constant number of configurations per
        rung."""
        counts = {depth: run_analysis(
            "pushdown", worst_case_program(depth), 1).config_count
            for depth in (4, 8, 12)}
        assert counts[8] - counts[4] == counts[12] - counts[8]
        assert counts[12] <= 8 * 12  # flat-cost envelope


# -- machinery stays honest ------------------------------------------------


class TestMachinery:
    def test_specializer_declines_and_the_knob_says_so(self):
        spec = registry().get("pushdown")
        assert spec.specialized is False
        assert spec.env_rep == "summary"
        assert spec.codegen is False
        program = compile_program(IDENTITY)
        forced = spec.run(program, 1, tier="codegen")
        declined = spec.run(program, 1, tier="generic")
        assert forced.engine_path == declined.engine_path == "generic"
        assert render_reports(program, forced) == \
            render_reports(program, declined)

    def test_context_free_parameter_recorded_as_zero(self):
        program = compile_program(IDENTITY)
        assert run_analysis("pushdown", program, 3).parameter == 0

    @pytest.mark.parametrize("name", ("eta", "map"))
    def test_plain_and_interned_agree(self, name):
        from plain_domain import plain_values
        program = _suite_program(name)
        interned = run_analysis("pushdown", program, 1)
        with plain_values():
            plain = run_analysis("pushdown", program, 1)
        assert render_reports(program, interned) == \
            render_reports(program, plain)
        assert interned.config_count == plain.config_count

    def test_entry_and_exit_tables_are_observable(self):
        """call_edges and exit summaries live on the rep after a run —
        the flat-cost bookkeeping the paper-style table reads off."""
        from repro.analysis.engine import EngineOptions, \
            run_single_store
        from repro.analysis.kernel import Recorder
        from repro.analysis.policies import summary_layout
        from repro.analysis.pushdown import SummaryMachine
        program = compile_program(IDENTITY)
        machine = SummaryMachine(program)
        run_single_store(machine, Recorder(), EngineOptions())
        rep = machine.rep
        # Two call edges into id — one per top-level application —
        # landing on two distinct entries.
        edges_per_entry = {env: edges for env, edges
                           in rep.call_edges.items()}
        assert len(edges_per_entry) >= 2
        assert all(len(edges) == 1
                   for edges in edges_per_entry.values())
        # Both entries returned: their frames carry exit summaries.
        assert rep.summaries
        # The identity program needs no heap at all — everything is
        # stack-resolvable, the CFA2 fast path.
        assert summary_layout(program).heap_names == frozenset()

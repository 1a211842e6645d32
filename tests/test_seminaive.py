"""Semi-naive re-steps equal full re-steps.

A configuration re-stepped with the same inputs as its last step
enters only the operators new since then
(:meth:`repro.analysis.kernel.Kernel._to_enter`).  The skipped enters
could only rebuild successors already seen and joins already in the
store, so the run must be the full re-step's run, trajectory and all.

The suite turns the skip off without a knob in the program:
:class:`FullResteps` is a value table whose ``decode_new`` ignores
what was entered before, swapped in at the seam the frozenset oracle
uses (``interning.ValueTable``, see ``tests/plain_domain.py``).  With
and without the skip, every run must give the same report bytes,
reachable configurations, store, ``steps`` and ``requeues``; where
the skip would be unsound (flat reps, the naive drivers) it must not
fire at all.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager

import pytest

from shared_corpus import EXPLODES, random_source

from repro.analysis import engine, flat_machine, interning, kcfa, pushdown
from repro.analysis.kernel import FlatEnv, SharedEnv, SummaryEnv
from repro.analysis.registry import registry
from repro.benchsuite.programs import BY_NAME
from repro.generators import worst_case_program
from repro.scheme.cps_transform import compile_program
from repro.service.jobs import render_reports


class FullResteps(interning.ValueTable):
    """The program's value table, with every re-step entering every
    operator again."""

    __slots__ = ()

    def decode_new(self, mask, old):
        return self.decode_iter(mask)


@contextmanager
def full_resteps():
    """Run every analysis started inside the block without the skip."""
    table = interning.ValueTable
    interning.ValueTable = FullResteps
    try:
        yield
    finally:
        interning.ValueTable = table


@pytest.fixture
def engine_runs(monkeypatch):
    """The :class:`~repro.analysis.engine.EngineRun` of every
    single-store run the Scheme analyzers make, in order."""
    runs = []

    def recording(machine, recorder, options=None):
        run = engine.run_single_store(machine, recorder, options)
        runs.append(run)
        return run
    for module in (kcfa, flat_machine, pushdown):
        monkeypatch.setattr(module, "run_single_store", recording)
    return runs


@pytest.fixture
def enter_calls(monkeypatch):
    """``enter`` calls per env rep (the generic kernel's only)."""
    calls = Counter()
    for rep in (SharedEnv, FlatEnv, SummaryEnv):
        def counted(self, *args, _enter=rep.enter, _kind=rep.kind):
            calls[_kind] += 1
            return _enter(self, *args)
        monkeypatch.setattr(rep, "enter", counted)
    return calls


RANDOM = {"rand1": (1, 3), "rand7": (7, 4), "rand42": (42, 3),
          "rand3": (3, 5), "rand11": (11, 5), "rand29": (29, 5)}
WORST = (2, 4, 6, 8, 10)
NAMES = tuple(BY_NAME) + tuple(RANDOM) \
    + tuple(f"worst{depth}" for depth in WORST)


@functools.cache
def program_named(name: str):
    if name in RANDOM:
        return compile_program(random_source(*RANDOM[name]))
    if name.startswith("worst"):
        return worst_case_program(int(name[len("worst"):]))
    return BY_NAME[name].compile()


#: Cells whose full re-step run takes tens of seconds or more.
SLOW = {("scm2c", "kcfa", 2)}


def _cases():
    for name in NAMES:
        for analysis in ("kcfa", "mcfa", "poly", "zero", "pushdown"):
            spec = registry().get(analysis)
            for depth in (0,) if spec.context_free else (0, 1, 2):
                if (name, analysis, depth) in SLOW:
                    continue
                # Flat reps and pushdown run the generic kernel on
                # both tiers (pinned below), so one run covers both.
                tiers = ("generic", "specialized") \
                    if analysis == "kcfa" else ("generic",)
                for tier in tiers:
                    yield name, analysis, depth, tier


def _observe(runs, analysis, program, depth, tier) -> dict:
    spec = registry().get(analysis)
    result = spec.run(program, depth, tier=tier)
    run = runs.pop()
    if analysis != "kcfa":
        assert result.engine_path == "generic"
    return {
        "report": render_reports(program, result),
        "configs": result.configs,
        "store": dict(result.store.items()),
        "steps": result.steps,
        "requeues": run.requeues,
    }


@pytest.mark.parametrize("name,analysis,depth,tier", list(_cases()))
def test_skip_equals_full_restep(engine_runs, name, analysis, depth,
                                 tier):
    program = program_named(name)
    seminaive = _observe(engine_runs, analysis, program, depth, tier)
    with full_resteps():
        full = _observe(engine_runs, analysis, program, depth, tier)
    for key, value in full.items():
        assert seminaive[key] == value, f"{key} diverged"


@pytest.mark.parametrize("name,analysis,depth", [
    ("regex", "pushdown", 0), ("scm2c", "kcfa", 1)])
def test_skip_fires(enter_calls, name, analysis, depth):
    """On the generic tier, the two heaviest cold cells enter at most
    half as often as a full re-step run does."""
    program = program_named(name)
    spec = registry().get(analysis)
    spec.run(program, depth, tier="generic")
    seminaive = sum(enter_calls.values())
    enter_calls.clear()
    with full_resteps():
        spec.run(program, depth, tier="generic")
    full = sum(enter_calls.values())
    assert 0 < seminaive <= full // 2


@pytest.mark.parametrize("name", ["map", "rand42", "worst6"])
@pytest.mark.parametrize("analysis", ["mcfa", "poly", "zero"])
def test_flat_reps_never_skip(enter_calls, name, analysis):
    """A flat ``enter`` reads free-variable sources from the store, so
    equal arguments do not mean equal joins: no enter is skipped."""
    program = program_named(name)
    spec = registry().get(analysis)
    spec.run(program, 1, tier="generic")
    seminaive = dict(enter_calls)
    enter_calls.clear()
    with full_resteps():
        spec.run(program, 1, tier="generic")
    assert seminaive == dict(enter_calls)


NAIVE_CASES = [
    (name, analysis, depth)
    for name in ("eta", "map", "rand1", "rand7", "rand42")
    for analysis in ("kcfa-naive", "kcfa-gc")
    for depth in (1,)
    if (name, analysis) not in EXPLODES
]


@pytest.mark.parametrize("name,analysis,depth", NAIVE_CASES)
def test_naive_drivers_never_skip(enter_calls, name, analysis, depth):
    """The naive drivers step one configuration against many per-state
    stores; a skip there would drop states."""
    program = program_named(name)
    spec = registry().get(analysis)

    def observe():
        enter_calls.clear()
        result = spec.run(program, depth)
        return (render_reports(program, result), result.state_count,
                result.configs, dict(enter_calls))
    seminaive = observe()
    with full_resteps():
        full = observe()
    assert seminaive == full

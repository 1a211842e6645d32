"""Editable analysis sessions and demand-driven point queries.

An :class:`AnalysisSession` holds one program's *latest cold result*.
Opening a session and every :meth:`AnalysisSession.edit` run exactly
the registry analysis a one-shot ``analyze`` runs
(:func:`~repro.analysis.registry.run_analysis` at the default engine
tier: the specialized loop for k-CFA, the generic kernel for the flat
policies, never generated source), so every report a session renders
is a cold report by construction.

An edit is a from-scratch run of the edited program.  The paper's
polynomial hierarchy (§5–6) is what makes that the right trade: an
m-CFA, poly-k-CFA or 0CFA run is cheap, and resuming a fixpoint from
a warm store measured no cheaper than a cold run even for k-CFA —
while re-deriving the public result from the resumed store cost half
as much again.

Point queries (``value-of``, ``call-sites-of``, ``escaping <label>``)
answer from the result's store and reachable configurations.  The
two that evaluate atoms in a configuration's environment go through
a generic kernel booted on the result's value table, built on the
first such query.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.clients import (
    call_sites_of, escaping_point, parse_label, run_result_query,
    validate_query, value_of,
)
from repro.analysis.kernel import FlatEnv, Kernel, SharedEnv
from repro.analysis.policies import (
    call_site_tick, mcfa_allocator, poly_kcfa_allocator,
)
from repro.analysis.registry import run_analysis
from repro.cps.program import Program
from repro.errors import UsageError
from repro.util.budget import Budget

# perfbench/spans.py patches these names when it traces an edit
# stream; they stay bound here only so its bindings resolve.  Sessions
# call neither import directly, and the warm-resume functions the last
# two names stood for no longer exist.
from repro.analysis.engine import run_single_store  # noqa: F401
from repro.analysis.kernel import result_from_run  # noqa: F401
align_program = None
affected_closure = None

__all__ = ["SESSION_ANALYSES", "AnalysisSession", "SessionState"]

#: Session analysis → the environment representation of its generic
#: kernel, given the context depth.  These are the single-store CPS
#: policies whose configurations the point queries can evaluate atoms
#: in.
_QUERY_REPS = {
    "kcfa": lambda depth: SharedEnv(call_site_tick(depth)),
    "mcfa": lambda depth: FlatEnv(mcfa_allocator(depth)),
    "poly": lambda depth: FlatEnv(poly_kcfa_allocator(depth)),
    "zero": lambda depth: FlatEnv(mcfa_allocator(0)),
}

#: Analyses a session can be opened on.
SESSION_ANALYSES = tuple(_QUERY_REPS)


class SessionState(NamedTuple):
    """The reachable configurations the point queries walk."""

    seen: frozenset


class AnalysisSession:
    """One program's latest cold analysis result, editable and
    queryable."""

    __slots__ = ("analysis", "parameter", "program", "result", "state",
                 "edits", "_machine")

    def __init__(self, program: Program, analysis: str, parameter: int,
                 budget: Budget | None = None):
        if analysis not in SESSION_ANALYSES:
            raise UsageError(
                f"analysis {analysis!r} does not support sessions; "
                f"choose from {', '.join(SESSION_ANALYSES)}")
        self.analysis = analysis
        self.parameter = parameter
        self.edits = 0
        self._analyze(program, budget)

    def _analyze(self, program: Program, budget: Budget | None) -> None:
        # Nothing is adopted until the run completes: a timeout
        # leaves the previous result in place.
        result = run_analysis(self.analysis, program, self.parameter,
                              budget, language="scheme")
        self.program = program
        self.result = result
        self.state = SessionState(result.configs)
        self._machine = None

    @property
    def store(self):
        return self.result.store

    @property
    def machine(self) -> Kernel:
        """A generic kernel booted on the result's value table: its
        ``evaluate`` resolves atoms in the result's configurations."""
        if self._machine is None:
            machine = Kernel(self.program,
                             _QUERY_REPS[self.analysis](self.parameter))
            machine.boot(self.result.store)
            self._machine = machine
        return self._machine

    def edit(self, new_program: Program,
             budget: Budget | None = None) -> None:
        """Re-analyze from scratch against *new_program*, a fresh
        compile of the edited source."""
        self.edits += 1
        self._analyze(new_program, budget)

    def query(self, kind: str, target: str | None = None) -> dict:
        """Answer one query from the session's latest result.

        The client layer (:mod:`repro.analysis.clients`) holds every
        implementation.  ``value-of <var>`` — the values flowing to a
        variable, joined over contexts; ``call-sites-of <lam label>``
        — the call sites whose operator may be that lambda;
        ``escaping <lam label>`` — may the lambda escape to the halt
        continuation or into a heap (pair) cell.  Pass kinds
        (``call-graph``, ``mono``, ``inlining``, and ``escaping``
        without a target) answer from the result as a batch query
        would.
        """
        validate_query(kind, target, session=True)
        if kind == "value-of":
            return value_of(self.store, target)
        if kind == "call-sites-of":
            return call_sites_of(self.machine, self.store,
                                 self.state.seen, parse_label(target))
        if kind == "escaping" and target is not None:
            return escaping_point(self.machine, self.store,
                                  self.state.seen, parse_label(target))
        return run_result_query(self.result, kind, target)

    def stats(self) -> dict:
        """Counters for the service's session bookkeeping."""
        return {"analysis": self.analysis, "parameter": self.parameter,
                "edits": self.edits,
                "configs": len(self.state.seen),
                "store_entries": len(self.store)}

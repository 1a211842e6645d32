"""k-CFA: Shivers's analysis as a policy of the AAM kernel.

This is the paper's §3.4–3.7 made executable:

* abstract times are the last *k* call-site labels; ``tick`` prepends
  the current call and truncates (§3.5.1) — the
  :func:`~repro.analysis.policies.call_site_tick` policy;
* abstract addresses are ``(variable, time)`` pairs; binding
  environments map variables to times (footnote 3);
* closures capture the binding environment **shared** — each free
  variable keeps the context it was bound in
  (:class:`~repro.analysis.kernel.SharedEnv`).  This is precisely
  what makes k-CFA exponential for functional programs: one lambda
  can be closed by combinatorially many environments (§2.2).

The transfer function itself lives in
:class:`~repro.analysis.kernel.Kernel` — shared verbatim with the
flat-environment analyses.  Both of the paper's engines drive it:

* :func:`analyze_kcfa` — the single-threaded-store worklist (§3.7,
  :func:`~repro.analysis.engine.run_single_store`) with
  read-dependency re-enqueueing; and
* :func:`analyze_kcfa_naive` — the reachable-*states* engine (§3.6,
  :func:`~repro.analysis.engine.run_naive`) where every state carries
  an immutable store.  Deeply exponential even for k = 0; exists to
  reproduce the paper's complexity observations, so only run it on
  small terms.
"""

from __future__ import annotations

from repro.cps.program import Program
from repro.analysis.engine import DEFAULT_TIER, EngineOptions, \
    machine_path, run_naive, run_single_store, specialize
from repro.analysis.kernel import (
    KConfig, Kernel, Recorder, SharedEnv, result_from_run,
)
from repro.analysis.policies import call_site_tick
from repro.analysis.results import AnalysisResult
from repro.errors import UsageError
from repro.util.budget import Budget

__all__ = [
    "KCFAMachine", "KConfig", "Recorder", "analyze_kcfa",
    "analyze_kcfa_naive", "result_from_run",
]


class KCFAMachine(Kernel):
    """The k-CFA abstract transition relation: the kernel with shared
    environments and the last-k-call-sites tick."""

    def __init__(self, program: Program, k: int):
        if k < 0:
            raise UsageError(f"k must be non-negative, got {k}")
        super().__init__(program, SharedEnv(call_site_tick(k)))
        self.k = k


def analyze_kcfa(program: Program, k: int = 1,
                 budget: Budget | None = None,
                 tier: str = DEFAULT_TIER) -> AnalysisResult:
    """Run k-CFA with the single-threaded store (§3.7).

    Raises :class:`~repro.errors.AnalysisTimeout` when the budget is
    exceeded — callers reproducing the worst-case table catch it and
    report ∞.  Every ``tier`` but ``generic`` selects the pre-bound
    shared-env step loop (there is no generated-source tier for shared
    environments).
    """
    machine = specialize(KCFAMachine(program, k), tier != "generic")
    run = run_single_store(machine, Recorder(),
                           EngineOptions(budget=budget))
    result = result_from_run(run, program, "k-CFA", k)
    result.engine_path = machine_path(machine)
    return result


def analyze_kcfa_naive(program: Program, k: int = 1,
                       budget: Budget | None = None) -> AnalysisResult:
    """Run k-CFA by naive reachable-states exploration (§3.6).

    The system-space is P(Σ̂): states carry whole stores, so state
    counts explode even for k = 0 — which is the paper's point.  Use
    only on small programs, with a budget.
    """
    run = run_naive(KCFAMachine(program, k), Recorder(),
                    EngineOptions(budget=budget))
    return result_from_run(run, program, "k-CFA-naive", k)

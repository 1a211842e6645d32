"""Naive polynomial k-CFA: flat environments + last-k-call-sites (§6).

This is what one obtains by instantiating the Jagannathan–Weeks
framework with Shivers's contour-allocation strategy: polynomial, but
weakly context-sensitive in practice.  Any call a procedure makes —
including the continuation calls that sequence its body — rotates the
k-window of context, so bindings from distinct invocations merge k
calls into the procedure.  The paper's ``identity``/``do-something``
example (§6) and our §6.2 table reproduce the degeneration to 0CFA.
"""

from __future__ import annotations

from repro.cps.program import Program
from repro.analysis.engine import DEFAULT_TIER
from repro.analysis.flat_machine import analyze_flat, poly_kcfa_allocator
from repro.analysis.results import AnalysisResult
from repro.errors import UsageError
from repro.util.budget import Budget


def analyze_poly_kcfa(program: Program, k: int = 1,
                      budget: Budget | None = None,
                      tier: str = DEFAULT_TIER) -> AnalysisResult:
    """Run naive polynomial k-CFA to fixpoint."""
    if k < 0:
        raise UsageError(f"k must be non-negative, got {k}")
    return analyze_flat(program, poly_kcfa_allocator(k),
                        "poly-k-CFA", k, budget, tier=tier)

"""m-CFA: the paper's polynomial context-sensitive hierarchy (§5).

m-CFA is the flat-environment abstract machine with the
top-m-stack-frames allocator: entering a *procedure* pushes the call
site onto the (truncated) frame context; entering a *continuation*
restores the frames of the environment the continuation closed over —
the analysis-level image of a function return.

``[m = 0]CFA`` coincides with ``[k = 0]CFA`` (§5.3), which
:func:`repro.analysis.zerocfa.analyze_zerocfa` and the test suite rely
on.
"""

from __future__ import annotations

from repro.cps.program import Program
from repro.analysis.engine import DEFAULT_TIER
from repro.analysis.flat_machine import analyze_flat, mcfa_allocator
from repro.analysis.results import AnalysisResult
from repro.errors import UsageError
from repro.util.budget import Budget


def analyze_mcfa(program: Program, m: int = 1,
                 budget: Budget | None = None,
                 tier: str = DEFAULT_TIER) -> AnalysisResult:
    """Run m-CFA to fixpoint.

    Complexity is polynomial in program size for any fixed m
    (Theorem 5.1): the configuration space is |Call| × |Call|^m and
    the store lattice has height |Var| × |Call|^m × |Lam| × |Call|^m.
    """
    if m < 0:
        raise UsageError(f"m must be non-negative, got {m}")
    return analyze_flat(program, mcfa_allocator(m), "m-CFA", m, budget,
                        tier=tier)

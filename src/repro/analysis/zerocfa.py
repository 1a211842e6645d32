"""0CFA — the context-insensitive base of both hierarchies.

``[m = 0]CFA`` and ``[k = 0]CFA`` are the same analysis (paper §5.3):
with no context, every flat environment is the empty tuple and every
shared environment maps all variables to the empty time, so both
machines compute the same flow sets.  We run it through the flat
machine (a single global environment means no free-variable copying
ever fires — all addresses collapse to ``(v, ())``).

The test suite checks the k-CFA(0) / m-CFA(0) / 0CFA agreement on flow
sets, which is a strong cross-validation of the two machines.
"""

from __future__ import annotations

from repro.cps.program import Program
from repro.analysis.engine import DEFAULT_TIER
from repro.analysis.flat_machine import analyze_flat, mcfa_allocator
from repro.analysis.results import AnalysisResult
from repro.util.budget import Budget


def analyze_zerocfa(program: Program,
                    budget: Budget | None = None,
                    tier: str = DEFAULT_TIER) -> AnalysisResult:
    """Run 0CFA (m-CFA with m = 0) to fixpoint.

    The ``codegen`` tier folds every context to ``()`` in emitted
    source with bit-parallel transfer (:mod:`repro.analysis.codegen`);
    the other tiers run the generic kernel.
    """
    return analyze_flat(program, mcfa_allocator(0), "0CFA", 0, budget,
                        tier=tier)

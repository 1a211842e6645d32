"""m-CFA for Featherweight Java — the paper's §5 "exploiting"
direction closed over the object fragment.

Section 5 derives m-CFA by transplanting the OO environment
representation onto closures: one base context per frame, free
variables copied in.  This module transplants it *back*: the flat FJ
machine (:class:`~repro.fj.poly.FJFlatMachine`) with the
:class:`~repro.analysis.policies.FJStack` policy —

* contexts are the top **m stack frames** (call-site labels pushed on
  the caller's *entry* context, restored on return);
* ``this`` is re-bound by **copying the receiver's fields** into the
  entry context, the §5.2 flat-closure move with an object's fields
  playing the free variables, so every address a method body touches
  shares one base context (§4.4's invariant).

Complexity is polynomial for any fixed m: configurations are
|Stmt| × |Label|^m and the store lattice has height
|Name| × |Label|^m × |Val|.  Before the kernel refactor this analysis
would have been a ninth hand-copied machine; now it is one policy
value (see :mod:`repro.analysis.policies`) plus this wrapper.
"""

from __future__ import annotations

from repro.analysis.engine import DEFAULT_TIER
from repro.analysis.policies import FJStack
from repro.fj.class_table import FJProgram
from repro.fj.kcfa import FJResult
from repro.fj.poly import FJFlatMachine, run_flat_policy
from repro.errors import UsageError
from repro.util.budget import Budget


def analyze_fj_mcfa(program: FJProgram, m: int = 1,
                    budget: Budget | None = None,
                    tier: str = DEFAULT_TIER) -> FJResult:
    """Run FJ m-CFA (stack-frame contexts, field copying) to fixpoint."""
    if m < 0:
        raise UsageError(f"m must be non-negative, got {m}")
    return run_flat_policy(FJFlatMachine(program, FJStack(m)),
                           "FJ-m-CFA", m, budget, tier)

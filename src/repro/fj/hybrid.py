"""The hybrid call-site/object-sensitivity ladder for FJ.

The paper's §8 lists carrying OO analysis ideas across the bridge it
builds; object sensitivity — contexts drawn from the *receiver's
allocation site* rather than the call site — is the canonical OO-side
policy.  With the kernel's policy axis it is one more data point:

* ``fj-hybrid`` (:func:`analyze_fj_hybrid`) concatenates the
  receiver's allocation chain (``obj_depth`` tagged ``O`` elements,
  one by default) with the last n call sites (tagged ``C`` elements)
  — :class:`~repro.analysis.policies.FJHybrid`, each axis drawn from
  its own history so neither crowds out the other;
* ``fj-obj`` (:func:`analyze_fj_obj`) keeps only the allocation
  chain, Milanova-style obj^n — deliberately *without* call-site
  padding, so two calls on one receiver merge at every depth (the
  imprecision the hybrid rung exists to fix).

Both run on the flat FJ machine's per-receiver invoke path — each
dispatching object gets its own entry context, with ``this`` aliased
to exactly that receiver — and are registered in
:mod:`repro.analysis.registry`, so ``analyze``, ``serve`` and
``bench`` pick them up with no dispatch-table edits.  The rungs of
the ladder are the parameter n (and, for custom policies,
``obj_depth``); ``python -m repro analyses`` lists them.
"""

from __future__ import annotations

from repro.analysis.engine import DEFAULT_TIER
from repro.analysis.policies import FJHybrid
from repro.fj.class_table import FJProgram
from repro.fj.kcfa import FJResult
from repro.fj.poly import FJFlatMachine, run_flat_policy
from repro.errors import UsageError
from repro.util.budget import Budget


def analyze_fj_hybrid(program: FJProgram, n: int = 1,
                      obj_depth: int = 1,
                      budget: Budget | None = None,
                      tier: str = DEFAULT_TIER) -> FJResult:
    """Run the hybrid ladder: *obj_depth* receiver-chain elements
    concatenated with the last *n* call sites per context window.

    Parameter validation raises
    :class:`~repro.errors.UsageError` so the CLI (``analyze``,
    ``bench --obj-depth``) reports a one-line message and exits 2
    instead of leaking a traceback.
    """
    if n < 0:
        raise UsageError(f"n must be non-negative, got {n}")
    if isinstance(obj_depth, bool) or not isinstance(obj_depth, int) \
            or obj_depth < 0:
        raise UsageError(
            f"obj_depth must be a non-negative integer, got "
            f"{obj_depth!r}")
    return run_flat_policy(
        FJFlatMachine(program, FJHybrid(call_depth=n,
                                        obj_depth=obj_depth)),
        "FJ-hybrid", n, budget, tier)


def analyze_fj_obj(program: FJProgram, n: int = 1,
                   budget: Budget | None = None,
                   tier: str = DEFAULT_TIER) -> FJResult:
    """Run pure object sensitivity (obj^n): the context window is the
    receiver's allocation chain alone."""
    if n < 0:
        raise UsageError(f"n must be non-negative, got {n}")
    return run_flat_policy(
        FJFlatMachine(program, FJHybrid(call_depth=0, obj_depth=n)),
        "FJ-obj", n, budget, tier)

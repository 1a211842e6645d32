"""Flat-environment analyses — m-CFA (§5.2) and "naive polynomial
k-CFA" (§6) as allocator policies of the AAM kernel.

A configuration is ``(call, ρ̂)`` where ρ̂ is a bounded tuple of call
labels; an address is ``(variable, ρ̂)``.  Entering a lambda allocates
a new abstract environment and **copies** the callee's free variables
into it — the abstract image of flat-closure creation.  Because an
environment is a single base context rather than a per-variable map,
the state space is polynomial: this is the paper's §4.4 observation
about objects, projected back onto closures.

All of that now lives in :class:`~repro.analysis.kernel.FlatEnv`
driven by the shared :class:`~repro.analysis.kernel.Kernel` transfer
function; this module keeps the machine's public face.  The
environment allocator ``alloc(call-label, caller-env, callee-lam,
callee-env)`` is the whole analysis:

* :func:`~repro.analysis.policies.mcfa_allocator` (§5.3): a
  *procedure* call pushes the call site and keeps the top m frames; a
  *continuation* call **restores** the environment the continuation
  closed over (a return).
* :func:`~repro.analysis.policies.poly_kcfa_allocator`: every call
  allocates the last k call sites.  Section 6 shows why this
  degenerates: any intervening call rotates the context window,
  merging bindings that m-CFA keeps apart.
"""

from __future__ import annotations

from typing import Callable

from repro.cps.program import Program
from repro.cps.syntax import Lam
from repro.analysis.domains import FlatEnvAbs
from repro.analysis.engine import DEFAULT_TIER, EngineOptions, \
    codegen_stage, machine_path, run_single_store, specialize
from repro.analysis.kernel import (
    FConfig, FlatEnv, Kernel, Recorder, result_from_run,
)
from repro.analysis.policies import mcfa_allocator, poly_kcfa_allocator
from repro.analysis.results import AnalysisResult
from repro.util.budget import Budget

__all__ = [
    "EnvAllocator", "FConfig", "FlatMachine", "analyze_flat",
    "mcfa_allocator", "poly_kcfa_allocator",
]

#: alloc(call_label, caller_env, callee_lam, callee_env) -> new_env
EnvAllocator = Callable[[int, FlatEnvAbs, Lam, FlatEnvAbs], FlatEnvAbs]


class FlatMachine(Kernel):
    """The flat-environment abstract transition relation: the kernel
    with flat environments and a pluggable allocator policy."""

    def __init__(self, program: Program, allocator: EnvAllocator):
        super().__init__(program, FlatEnv(allocator))


def analyze_flat(program: Program, allocator: EnvAllocator,
                 analysis: str, parameter: int,
                 budget: Budget | None = None,
                 tier: str = DEFAULT_TIER) -> AnalysisResult:
    """Run the flat machine to fixpoint with a single-threaded store.

    ``tier`` (:data:`~repro.analysis.engine.TIERS`) picks the step
    loop: ``codegen`` runs generated source
    (:func:`~repro.analysis.engine.codegen_stage`), which pays an emit
    and a ``compile()`` per program and so only suits warm workers;
    ``specialized`` and ``generic`` both run the generic kernel, as
    no staged flat loop beats it.  Results are byte-identical every
    way.
    """
    machine = FlatMachine(program, allocator)
    staged = codegen_stage(machine, tier == "codegen")
    machine = staged if staged is not None \
        else specialize(machine, tier != "generic")
    run = run_single_store(machine, Recorder(),
                           EngineOptions(budget=budget))
    result = result_from_run(run, program, analysis, parameter)
    result.engine_path = machine_path(machine)
    return result

"""Abstract garbage collection (ΓCFA) for the functional analyses.

The paper's §8 lists abstract GC — Might and Shivers's ΓCFA — as the
prime candidate to carry across the bridge it builds.  This module
implements it for the CPS analyses: before an abstract state
transitions, its store is restricted to the addresses *reachable* from
the state's roots.  Collecting an address that is later re-bound gives
the analysis a fresh, singleton flow set where the uncollected
analysis would have joined with stale values — abstract GC trades the
single-threaded store for per-state stores and buys precision.

Reachability:

* roots of a configuration ``(call, β̂, t̂)`` are the addresses of the
  variables free in ``call``;
* an abstract closure reaches the addresses of its free variables
  through its environment;
* an abstract pair reaches its field addresses.

``analyze_kcfa_gc`` is the shared §3.6 naive driver
(:func:`~repro.analysis.engine.run_naive`) with ``collect`` installed
as the engine's GC policy; it reports the same
:class:`~repro.analysis.results.AnalysisResult` API.  ``collect`` and
``reachable_addresses`` are exposed for tests and for the
flat-environment variant.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.domains import (
    APair, Addr, FClo, FrozenStore, KClo,
)
from repro.analysis.engine import EngineOptions, run_naive
from repro.analysis.kcfa import (
    KCFAMachine, KConfig, Recorder, result_from_run,
)
from repro.analysis.results import AnalysisResult
from repro.cps.program import Program
from repro.cps.syntax import free_vars_of_call, free_vars_of_lam
from repro.util.budget import Budget


def config_roots(config: KConfig) -> set[Addr]:
    """Addresses directly referenced by a k-CFA configuration."""
    roots = set()
    for name in free_vars_of_call(config.call):
        time = config.benv.get(name)
        if time is not None:
            roots.add((name, time))
    return roots


def value_addresses(value) -> Iterable[Addr]:
    """Addresses an abstract value can reach in one step."""
    if isinstance(value, KClo):
        for name in free_vars_of_lam(value.lam):
            time = value.benv.get(name)
            if time is not None:
                yield (name, time)
    elif isinstance(value, FClo):
        for name in free_vars_of_lam(value.lam):
            yield (name, value.env)
    elif isinstance(value, APair):
        yield value.car
        yield value.cdr


def reachable_addresses(roots: set[Addr], store) -> set[Addr]:
    """Transitive closure of reachability through the store."""
    seen: set[Addr] = set()
    frontier = list(roots)
    while frontier:
        addr = frontier.pop()
        if addr in seen:
            continue
        seen.add(addr)
        for value in store.get(addr):
            for reached in value_addresses(value):
                if reached not in seen:
                    frontier.append(reached)
    return seen


def collect(config: KConfig, store: FrozenStore) -> FrozenStore:
    """Restrict *store* to what *config* can reach (one GC)."""
    live = reachable_addresses(config_roots(config), store)
    return FrozenStore((addr, values) for addr, values in store.items()
                       if addr in live)


def analyze_kcfa_gc(program: Program, k: int = 1,
                    budget: Budget | None = None) -> AnalysisResult:
    """k-CFA with abstract garbage collection at every transition.

    Runs the shared naive reachable-states driver (per-state stores
    are what make collection possible) with :func:`collect` as the
    engine's GC policy, so every state is collected before it expands.
    """
    run = run_naive(KCFAMachine(program, k), Recorder(),
                    EngineOptions(budget=budget, collect=collect))
    return result_from_run(run, program, "k-CFA+GC", k)

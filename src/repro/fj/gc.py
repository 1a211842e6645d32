"""Abstract garbage collection for OO k-CFA — the paper's §8
hypothesis, implemented.

    "The abstract semantics for Featherweight Java make it possible to
     adapt abstract garbage collection to the static analysis of
     object-oriented programs.  We hypothesize that its benefits for
     speed and precision will carry over."

This module adapts ΓCFA to the Figure 9 semantics: the shared naive
driver (:func:`~repro.analysis.engine.run_naive`) with per-state
stores, collecting every store down to the addresses
reachable from the configuration's roots before it expands.  Roots are
the binding environment's range plus the continuation pointer;
abstract objects reach their field addresses; abstract continuations
reach their saved environment and the rest of the continuation chain.

``analyze_fj_kcfa_gc`` mirrors :func:`repro.fj.kcfa.analyze_fj_kcfa`'s
result API, so the benchmark harness can compare collected vs.
uncollected directly (``benchmarks/bench_abstract_gc.py``).
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.domains import FrozenStore
from repro.analysis.engine import EngineOptions, run_naive
from repro.fj.class_table import FJProgram
from repro.fj.kcfa import (
    AKont, AObj, FJConfig, FJKCFAMachine, FJResult, HALT_PTR,
    _FJRecorder, fj_result_from_run,
)
from repro.util.budget import Budget

AbsAddr = tuple


def config_roots(config: FJConfig) -> set[AbsAddr]:
    """Addresses directly referenced by an FJ configuration."""
    roots = {addr for _name, addr in config.benv.items()}
    if config.kont_ptr is not HALT_PTR:
        roots.add(config.kont_ptr)
    return roots


def value_addresses(value) -> Iterable[AbsAddr]:
    """Addresses an abstract FJ value can reach in one step."""
    if isinstance(value, AObj):
        for _field, addr in value.benv.items():
            yield addr
    elif isinstance(value, AKont):
        for _name, addr in value.benv.items():
            yield addr
        if value.kont_ptr is not HALT_PTR:
            yield value.kont_ptr


def reachable_addresses(roots: set[AbsAddr], store) -> set[AbsAddr]:
    seen: set[AbsAddr] = set()
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


def collect(config: FJConfig, store: FrozenStore) -> FrozenStore:
    """Restrict *store* to what *config* can reach."""
    live = reachable_addresses(config_roots(config), store)
    return FrozenStore((addr, values) for addr, values in store.items()
                       if addr in live)


def analyze_fj_kcfa_gc(program: FJProgram, k: int = 1,
                       tick_policy: str = "invocation",
                       budget: Budget | None = None) -> FJResult:
    """OO k-CFA with abstract garbage collection at every transition."""
    run = run_naive(FJKCFAMachine(program, k, tick_policy), _FJRecorder(),
                    EngineOptions(budget=budget, collect=collect))
    return fj_result_from_run(run, program, "FJ-k-CFA+GC", k,
                              tick_policy)

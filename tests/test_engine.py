"""Tests for the shared fixpoint engine.

Covers DependencyWorklist dirty/re-enqueue semantics (a reader is
re-enqueued exactly once per store change, non-readers never), the
Machine protocol, both drivers, and engine-vs-naive result agreement
on small programs.  The kernel's semi-naive re-steps are held to full
re-steps in ``tests/test_seminaive.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    analyze_kcfa, analyze_kcfa_naive, analyze_mcfa,
)
from repro.analysis.engine import (
    EngineOptions, Machine, NaiveState, run_naive, run_single_store,
)
from repro.analysis.flat_machine import FlatMachine, mcfa_allocator
from repro.analysis.kcfa import KCFAMachine, Recorder
from repro.errors import AnalysisTimeout
from repro.scheme.cps_transform import compile_program
from repro.util.budget import Budget
from repro.util.fixpoint import DependencyWorklist


class TestDirtySemantics:
    """Re-enqueue exactly the readers, exactly once per change."""

    def _ran(self, worklist, config, reads):
        """Simulate one processed configuration."""
        worklist.add(config)
        assert worklist.pop() == config
        worklist.record_reads(config, reads)

    def test_reader_requeued_once_per_change(self):
        worklist = DependencyWorklist()
        self._ran(worklist, "reader", ["a"])
        assert worklist.dirty(["a"]) == 1
        assert worklist.pop() == "reader"
        # The store grows again after the re-run: one more re-enqueue.
        assert worklist.dirty(["a"]) == 1
        assert worklist.pop() == "reader"
        assert not worklist

    def test_pending_reader_not_requeued_twice(self):
        worklist = DependencyWorklist()
        self._ran(worklist, "reader", ["a", "b"])
        assert worklist.dirty(["a"]) == 1
        # Second change before the reader re-ran: no duplicate entry.
        assert worklist.dirty(["b"]) == 0
        assert len(worklist) == 1
        assert worklist.requeue_count == 1

    def test_non_readers_never_requeued(self):
        worklist = DependencyWorklist()
        self._ran(worklist, "reader", ["a"])
        self._ran(worklist, "bystander", ["b"])
        assert worklist.dirty(["a"]) == 1
        assert worklist.pop() == "reader"
        assert not worklist  # bystander stayed out
        assert worklist.readers_of("a") == {"reader"}
        assert worklist.readers_of("b") == {"bystander"}

    def test_multiple_readers_all_requeued(self):
        worklist = DependencyWorklist()
        self._ran(worklist, "r1", ["shared"])
        self._ran(worklist, "r2", ["shared"])
        assert worklist.dirty(["shared"]) == 2
        assert {worklist.pop(), worklist.pop()} == {"r1", "r2"}


class TestMachineProtocol:
    def test_all_machines_satisfy_protocol(self):
        from repro.fj import parse_fj
        from repro.fj.examples import ALL_EXAMPLES
        from repro.fj.kcfa import FJKCFAMachine
        from repro.fj.poly import FJPolyMachine
        program = compile_program("((lambda (x) x) 7)")
        fj_program = parse_fj(ALL_EXAMPLES["pairs"])
        machines = [
            KCFAMachine(program, 1),
            FlatMachine(program, mcfa_allocator(1)),
            FJKCFAMachine(fj_program, 1),
            FJPolyMachine(fj_program, 1),
        ]
        for machine in machines:
            assert isinstance(machine, Machine)


class TestEngineDrivers:
    def test_single_store_counts_requeues(self):
        # Recursion forces the store to grow after its readers ran.
        program = compile_program("""
            (define (count n) (if (= n 0) 0 (count (- n 1))))
            (count 5)
        """)
        run = run_single_store(KCFAMachine(program, 0), Recorder())
        assert run.steps > 0
        assert run.requeues > 0

    def test_budget_is_enforced(self):
        program = compile_program("""
            (define (loop n) (loop (+ n 1)))
            (loop 0)
        """)
        with pytest.raises(AnalysisTimeout):
            run_single_store(
                KCFAMachine(program, 1), Recorder(),
                EngineOptions(budget=Budget(max_steps=5)))

    def test_naive_driver_returns_states(self):
        program = compile_program("((lambda (x) x) 7)")
        run = run_naive(KCFAMachine(program, 0), Recorder())
        assert run.state_count == len(run.states) > 0
        assert all(isinstance(state, NaiveState)
                   for state in run.states)
        assert run.configs == frozenset(
            state.config for state in run.states)


AGREEMENT_SOURCES = {
    "identity": "((lambda (x) x) 7)",
    "id-twice": "(define (id x) x) (cons (id 1) (id 2))",
    "adders": """
        (define (make-adder n) (lambda (x) (+ x n)))
        (cons ((make-adder 1) 10) ((make-adder 2) 20))
    """,
    "even-odd": """
        (define (even? n) (if (= n 0) #t (odd? (- n 1))))
        (define (odd? n) (if (= n 0) #f (even? (- n 1))))
        (even? 10)
    """,
}


class TestEngineAgreement:
    """§3.7 single-store vs §3.6 naive: same answers on small terms.

    In general the single store may widen (lose precision vs. per-state
    stores), so the subset direction is the sound guarantee; on these
    small programs the results coincide exactly.
    """

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("name", sorted(AGREEMENT_SOURCES))
    def test_single_store_matches_naive(self, name, k):
        program = compile_program(AGREEMENT_SOURCES[name])
        fast = analyze_kcfa(program, k)
        naive = analyze_kcfa_naive(program, k)
        assert fast.halt_values == naive.halt_values
        assert fast.callees == naive.callees
        assert fast.configs == naive.configs
        assert dict(fast.store.items()) == dict(naive.store.items())

    @pytest.mark.parametrize("name", sorted(AGREEMENT_SOURCES))
    def test_naive_store_never_exceeds_single_store(self, name):
        """Soundness direction that must hold for *any* program."""
        program = compile_program(AGREEMENT_SOURCES[name])
        fast = analyze_kcfa(program, 1)
        naive = analyze_kcfa_naive(program, 1)
        for addr, values in naive.store.items():
            assert values <= fast.store.get(addr)

    def test_flat_machine_runs_through_same_engine(self):
        """m-CFA and k-CFA share one driver; at depth 0 they agree."""
        program = compile_program(AGREEMENT_SOURCES["id-twice"])
        mcfa = analyze_mcfa(program, 0)
        kcfa = analyze_kcfa(program, 0)
        assert mcfa.halt_values == kcfa.halt_values
        assert {label: frozenset(lam.label for lam in lams)
                for label, lams in mcfa.callees.items()} == \
               {label: frozenset(lam.label for lam in lams)
                for label, lams in kcfa.callees.items()}

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.benchsuite import SUITE
from repro.scheme.cps_transform import compile_program


@pytest.fixture(autouse=True)
def _memory_codegen_cache():
    """Keep the codegen default cache memory-only during tests.

    Worker-path jobs (``run_job`` with a program cache) and every
    ``tier="codegen"`` run generate step modules; without this a test
    process would write them into the developer's real
    ``~/.cache/repro/codegen``.  Memory-only keeps runs hermetic
    while still exercising the cache lookup path.  Tests that want a
    disk-backed cache install their own via
    :func:`repro.analysis.codegen.set_default_codegen_cache`.
    """
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    set_default_codegen_cache(CodegenCache())
    yield
    set_default_codegen_cache(None)


@pytest.fixture(scope="session")
def suite_compiled():
    """The §6.2 suite, compiled once per test session."""
    return {bench.name: bench.compile() for bench in SUITE}


@pytest.fixture(scope="session")
def small_programs():
    """A pool of small interesting programs, compiled once."""
    sources = {
        "const": "42",
        "identity": "((lambda (x) x) 7)",
        "fact": ("(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))"
                 " (fact 5)"),
        "even-odd": """
            (define (even? n) (if (= n 0) #t (odd? (- n 1))))
            (define (odd? n) (if (= n 0) #f (even? (- n 1))))
            (even? 10)
        """,
        "adders": """
            (define (make-adder n) (lambda (x) (+ x n)))
            (cons ((make-adder 1) 10) ((make-adder 2) 20))
        """,
        "church": """
            (define zero (lambda (f) (lambda (x) x)))
            (define (succ n) (lambda (f) (lambda (x) (f ((n f) x)))))
            (define (church->int n) ((n (lambda (k) (+ k 1))) 0))
            (church->int (succ (succ (succ zero))))
        """,
        "list-ops": """
            (define (len xs) (if (null? xs) 0 (+ 1 (len (cdr xs)))))
            (len (cons 1 (cons 2 (cons 3 '()))))
        """,
        "let-shadow": """
            (let ((x 1))
              (let ((x (+ x 1)))
                (let ((x (* x 3))) x)))
        """,
    }
    return {name: (source, compile_program(source))
            for name, source in sources.items()}

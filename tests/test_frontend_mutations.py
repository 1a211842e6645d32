"""Seeded front-end mutation test: malformed programs fail cleanly.

Each mutant is a §6 suite program or an FJ example with one small
edit: a short span deleted, a token from the language's alphabet
inserted, or two slices swapped.  The contract for every mutant:

* the front end (:func:`~repro.scheme.cps_transform.compile_program`
  or :func:`~repro.fj.parse_fj`) either compiles it or raises a
  :class:`~repro.errors.ReproError` — never any other exception;
* a mutant that compiles runs through :func:`~repro.service.jobs.
  run_job` under a 1 s budget and ends ``ok`` or ``timeout``, never
  ``error``.

The mutants are a pure function of the seed, so a failure names a
reproducible case.
"""

from __future__ import annotations

import random

import pytest

from repro.benchsuite import SUITE
from repro.errors import ReproError
from repro.fj import parse_fj
from repro.fj.examples import ALL_EXAMPLES
from repro.scheme.cps_transform import compile_program
from repro.service.jobs import JobSpec, run_job

SEED = 20
MUTANTS_PER_LANGUAGE = 200
CHUNKS = 10

#: language → (sources, tokens a mutation may insert, front end, the
#: analyses a compiled mutant runs under).
LANGUAGES = {
    "scheme": (
        {bench.name: bench.source for bench in SUITE},
        ("(", ")", "'", "#t", "#f", "0", "-1", "x", "lambda", "define",
         "if", "let", "letrec", "begin", "cons", "car", "quote", "\"",
         "#\\a", "."),
        compile_program,
        (("zero", 0), ("mcfa", 1))),
    "fj": (
        dict(ALL_EXAMPLES),
        ("{", "}", "(", ")", ";", "=", ".", ",", "new", "return",
         "class", "extends", "super", "this", "Object", "x", "(Object)"),
        parse_fj,
        (("fj-poly", 0), ("fj-kcfa", 1))),
}


def mutate(source: str, rng: random.Random, tokens) -> str:
    """One random edit of *source*."""
    size = len(source)
    kind = rng.randrange(3)
    if kind == 0:
        start = rng.randrange(size)
        return source[:start] + source[start + rng.randint(1, 8):]
    if kind == 1:
        at = rng.randrange(size + 1)
        return source[:at] + f" {rng.choice(tokens)} " + source[at:]
    first, second = sorted(rng.sample(range(size), 2))
    width = rng.randint(1, max(1, min(12, second - first)))
    a = source[first:first + width]
    b = source[second:second + width]
    return (source[:first] + b + source[first + width:second] + a
            + source[second + width:])


def mutants(language: str, chunk: int):
    """This chunk's share of the language's seeded mutants, as
    ``(case id, source, analysis, context)``."""
    sources, tokens, _front_end, analyses = LANGUAGES[language]
    rng = random.Random(f"{SEED}-{language}-{chunk}")
    names = sorted(sources)
    for index in range(MUTANTS_PER_LANGUAGE // CHUNKS):
        name = rng.choice(names)
        analysis, context = rng.choice(analyses)
        case = f"{language}/{chunk}/{index}:{name}"
        yield case, mutate(sources[name], rng, tokens), analysis, \
            context


@pytest.mark.parametrize("chunk", range(CHUNKS))
@pytest.mark.parametrize("language", sorted(LANGUAGES))
def test_mutants_compile_or_fail_cleanly(language, chunk):
    front_end = LANGUAGES[language][2]
    for case, source, analysis, context in mutants(language, chunk):
        try:
            front_end(source)
        except ReproError:
            continue
        except Exception as error:
            pytest.fail(f"{case}: the front end raised "
                        f"{type(error).__name__}: {error}")
        row = run_job(JobSpec(source=source, analysis=analysis,
                              context=context, timeout=1.0))
        assert row["status"] in ("ok", "timeout"), \
            f"{case} under {analysis}({context}): {row.get('error')}"

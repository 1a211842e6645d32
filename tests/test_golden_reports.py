"""Golden differential suite: reports must stay byte-identical.

The kernel refactor (one policy-parameterized AAM kernel behind every
analysis) is only allowed to move code, not results: the ``analyze``
bytes for every pre-existing analysis — across both value domains,
suite programs and random programs — are pinned here against golden
files captured from the seed implementation *before* the refactor.
The program runs interned bitsets only; the ``plain`` cases run the
same ``run_job`` over the tests' frozenset oracle
(``tests/plain_domain.py``).
The FJ report text is pinned the same way.

Regenerating (only when an output change is intended and reviewed)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest -q \
        tests/test_golden_reports.py

A missing golden file is a hard failure unless regeneration is
requested, so a new analysis cannot silently ship unpinned.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from plain_domain import VALUE_MODES, value_domain
from shared_corpus import EXPLODES, small_sources

from repro.service.jobs import JobSpec, run_job

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
# Strict opt-in: "0"/"false"/"no" must NOT silently flip the whole
# suite into write-mode (where every assertion is vacuous).
REGEN = os.environ.get("REPRO_REGEN_GOLDENS", "").lower() \
    in ("1", "true", "yes")

#: The analyses that existed before the kernel refactor.  New policies
#: are pinned too once they land, but these six (plus the three FJ
#: machines below) are the byte-compatibility contract with the seed.
SEED_SCHEME_ANALYSES = ("kcfa", "mcfa", "poly", "zero", "kcfa-gc",
                        "kcfa-naive")
SEED_FJ_ANALYSES = ("fj-kcfa", "fj-poly", "fj-kcfa-gc")


#: The corpus and naive-driver exclusions are shared with the
#: differential service suite (tests/shared_corpus.py) so the
#: "server bytes == analyze bytes == pinned goldens" chain always
#: covers the same programs.
_scheme_sources = small_sources

#: Scheme policies pinned the day they landed (no seed baseline —
#: same contract as NEW_FJ_ANALYSES below).  ``pushdown``'s entry
#: environments are canonical argument signatures, so its bytes must
#: hold across value domains and hash seeds like everyone else's.
NEW_SCHEME_ANALYSES = ("pushdown",)

SCHEME_CASES = [
    (name, analysis, context, values)
    for name in sorted(_scheme_sources())
    for analysis in SEED_SCHEME_ANALYSES + NEW_SCHEME_ANALYSES
    for context in (1,)
    for values in VALUE_MODES
    if (name, analysis) not in EXPLODES
] + [
    # Context sweeps on the cheap polynomial analyses.
    ("eta", "mcfa", 0, "interned"),
    ("eta", "mcfa", 2, "interned"),
    ("eta", "kcfa", 2, "interned"),
    ("rand7", "poly", 2, "interned"),
]


def _check_golden(path: Path, actual: str) -> None:
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual, encoding="utf-8")
        return
    assert path.is_file(), (
        f"golden file {path.name} is missing — run with "
        f"REPRO_REGEN_GOLDENS=1 to pin it")
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, (
        f"report bytes drifted from golden {path.name}")


@pytest.mark.parametrize("name,analysis,context,values", SCHEME_CASES)
def test_scheme_report_bytes(name, analysis, context, values):
    source = _scheme_sources()[name]
    with value_domain(values):
        row = run_job(JobSpec(source=source, analysis=analysis,
                              context=context, timeout=300.0))
    assert row["status"] == "ok", row.get("error")
    _check_golden(
        GOLDEN_DIR / f"{name}.{analysis}.{context}.{values}.txt",
        row["stdout"])


#: The post-kernel policies, pinned the day they landed.  Separate
#: from the seed lists above: these have no pre-refactor baseline,
#: but drift after pinning is still a bug.
NEW_FJ_ANALYSES = ("fj-mcfa", "fj-hybrid", "fj-obj")

FJ_CASES = [
    (name, analysis)
    for name in ("pairs", "dispatch", "linked_list", "oo_identity")
    for analysis in SEED_FJ_ANALYSES + NEW_FJ_ANALYSES
]


@pytest.mark.parametrize("name,analysis", FJ_CASES)
def test_fj_report_bytes(name, analysis):
    from repro.fj import parse_fj
    from repro.fj.examples import ALL_EXAMPLES
    from repro.reporting import fj_report
    from repro.service.jobs import run_fj_analysis

    program = parse_fj(ALL_EXAMPLES[name])
    result = run_fj_analysis(program, analysis, 1)
    _check_golden(GOLDEN_DIR / f"fj.{name}.{analysis}.1.txt",
                  fj_report(result) + "\n")

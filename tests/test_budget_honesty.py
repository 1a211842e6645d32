"""The budget bounds a job's work for every registered analysis.

A job's wall-clock budget is checked cooperatively: between the front
end and the analysis, and every few hundred engine steps.  This
property holds the whole registry to it — the naive, GC, pushdown and
FJ drivers included: on the largest ladder programs, ``run_job`` with
a 50 ms allowance answers ``ok`` or ``timeout`` well within 0.5 s of
wall time.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.registry import registry
from repro.generators.fj_chain import fj_chain_source
from repro.generators.worstcase import worst_case_source
from repro.service.jobs import JobSpec, run_job

TIMEOUT_SECONDS = 0.05
WALL_BOUND_SECONDS = 0.5

#: The largest program of each language's ladder that the CLI and
#: benchmarks name: worst14 (Scheme) and fjchain100 (FJ).
SOURCES = {"scheme": worst_case_source(14), "fj": fj_chain_source(100)}


@pytest.mark.parametrize("analysis", registry().names())
def test_near_zero_timeout_answers_promptly(analysis):
    language = registry().get(analysis).language
    job = JobSpec(source=SOURCES[language], analysis=analysis,
                  context=1, timeout=TIMEOUT_SECONDS)
    run_job(job)  # warm-up: first-use imports are not the budget's
    started = time.perf_counter()
    row = run_job(job)
    wall = time.perf_counter() - started
    assert row["status"] in ("ok", "timeout"), row.get("error")
    assert wall < WALL_BOUND_SECONDS, \
        f"{analysis} took {wall:.3f}s under a {TIMEOUT_SECONDS}s budget"

"""The benchmark's own tests: the quick smoke mode of every workload.

Not collected by the repository's test run (the file name does not
match ``test_*.py``); run it explicitly from the repository root::

    python3 -m pytest -q perfbench/smoke_check.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import smoke  # noqa: E402

SECONDS = 1.0


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", smoke.WORKLOADS)
def test_smoke_prints_every_declared_metric(workload, trace):
    document = smoke.run_one(workload, trace, seed=7, seconds=SECONDS)
    assert smoke.problems(document, smoke.EXPECTED[trace]) == []


def test_problems_flags_a_missing_metric_and_a_failure():
    expected = {"p50_ms": "ms", "setup_s": "s"}
    document = {"correct": False, "attempted": 3, "failed": 1,
                "metrics": {"p50_ms": {"value": 1.0, "unit": "s"}}}
    found = smoke.problems(document, expected)
    assert any("failed=1" in line for line in found)
    assert any("missing ['setup_s']" in line for line in found)
    assert any("p50_ms: unit 's'" in line for line in found)

"""Quick smoke mode: every workload, untraced and traced, for about a
second each, through the real command line.

Each run must end with the result object, name every metric
``BENCHMARK.json`` declares for its mode with the declared unit, and
report no failed request.  ``python3 perfbench/run.py --smoke`` runs
them all; ``smoke_check.py`` drives the same checks from pytest.
"""

from __future__ import annotations

import json
import subprocess
import sys

import hermetic
from declared import END_TO_END, PER_LAYER, WORKLOADS

#: ``--trace`` value → the declared ``{name: unit}`` it must print.
EXPECTED = {0: dict(END_TO_END), 1: dict(PER_LAYER)}


def run_one(workload: str, trace: int, seed: int, seconds: float
            ) -> dict:
    """One quick run; returns its result object."""
    completed = subprocess.run(
        [sys.executable, str(hermetic.HERE / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--quick"],
        cwd=hermetic.ROOT, capture_output=True, text=True, timeout=300)
    if completed.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{completed.returncode}:\n"
                             f"{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def problems(document: dict, expected: dict) -> list[str]:
    """Everything wrong with one result object."""
    found = []
    if set(document) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(document)}")
    if document.get("failed") != 0 or not document.get("correct"):
        found.append(f"failed={document.get('failed')} "
                     f"correct={document.get('correct')}")
    if not document.get("attempted", 0) >= 1:
        found.append("nothing attempted")
    metrics = document.get("metrics", {})
    if set(metrics) != set(expected):
        found.append(f"metrics differ from BENCHMARK.json: missing "
                     f"{sorted(set(expected) - set(metrics))}, extra "
                     f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            found.append(f"{name}: unit {entry.get('unit')!r}, "
                         f"declared {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            found.append(f"{name}: value {entry.get('value')!r}")
    return found


def run_all(seed: int, seconds: float) -> int:
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                found = problems(run_one(workload, trace, seed,
                                         seconds), EXPECTED[trace])
            except AssertionError as error:
                found = [str(error)]
            bad += bool(found)
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if not found else '; '.join(found)}")
    return 1 if bad else 0

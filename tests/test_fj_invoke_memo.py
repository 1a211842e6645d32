"""The flat FJ machine's invoke memo changes nothing observable.

:class:`~repro.fj.poly.FJFlatMachine`'s receiver-insensitive invoke
rule memoizes each site's receiver → method dispatch, each interned
continuation and each callee entry plan (kont address, parameter
addresses, successor configuration).  A memo may only skip work: the
same successors, the same joins in the same order, the same interning
order.  This suite holds the shipped machine to a variant that forgets
every memo before each step, on the FJ examples, the ``fjchain``
ladder and the random corpus, for ``fj-poly`` at k 0–2 under both
ticking policies.  Equal ``steps`` and configuration sets mean equal
trajectories: the engine's worklist is FIFO.

The last test pins ``steps`` across heap layouts: FJ configurations
hash their continuation pointer, so the halt pointer must hash the
same in every process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fj import parse_fj
from repro.fj.examples import ALL_EXAMPLES
from repro.fj.poly import FJPolyMachine, run_flat_policy
from repro.generators.fj_chain import fj_chain_program
from repro.generators.fj_random import fj_random_program
from repro.service.jobs import render_fj_reports


class ForgetfulPolyMachine(FJPolyMachine):
    """The flat FJ machine with every invoke memo cleared before each
    step: each step rebuilds what the shipped machine looks up."""

    def step(self, config, store, reads, recorder):
        self._dispatch.clear()
        self._konts.clear()
        self._plans.clear()
        return super().step(config, store, reads, recorder)


def _programs():
    programs = {name: parse_fj(source)
                for name, source in ALL_EXAMPLES.items()}
    for depth in (5, 20, 50):
        programs[f"fjchain{depth}"] = fj_chain_program(depth)
    for seed in range(1, 13):
        programs[f"fjrand{seed}"] = fj_random_program(seed)
    return programs


PROGRAMS = _programs()

CASES = [(name, k, tick)
         for name in PROGRAMS
         for k in (0, 1, 2)
         for tick in ("invocation", "statement")]


def _run(machine_class, program, k, tick):
    return run_flat_policy(machine_class(program, k, tick),
                           "FJ-poly-k-CFA", k)


@pytest.mark.parametrize("name,k,tick", CASES)
def test_memo_equals_forgetful_machine(name, k, tick):
    program = PROGRAMS[name]
    shipped = _run(FJPolyMachine, program, k, tick)
    forgetful = _run(ForgetfulPolyMachine, program, k, tick)
    assert render_fj_reports(program, shipped) \
        == render_fj_reports(program, forgetful)
    assert shipped.steps == forgetful.steps
    assert shipped.configs == forgetful.configs
    assert shipped.invoke_targets == forgetful.invoke_targets
    assert shipped.method_contexts == forgetful.method_contexts


def test_forgetful_machine_forgets():
    """The variant really runs without its memos: after a run, the
    shipped machine's plan memo holds entries and the variant's holds
    at most the last step's."""
    program = PROGRAMS["fjchain20"]
    shipped = FJPolyMachine(program, 0)
    forgetful = ForgetfulPolyMachine(program, 0)
    for machine in (shipped, forgetful):
        run_flat_policy(machine, "FJ-poly-k-CFA", 0)
    assert len(shipped._plans) > 1
    assert len(forgetful._plans) <= 1


#: Allocate *n* objects before the first import, then print the steps
#: of fj-poly(0) and fj-mcfa(0) on one random program.
_LAYOUT_SCRIPT = """
import sys
padding = [object() for _ in range(int(sys.argv[1]))]
from repro.analysis.registry import registry
from repro.generators.fj_random import fj_random_program
program = fj_random_program(3)
print(registry().get("fj-poly").run(program, 0).steps,
      registry().get("fj-mcfa").run(program, 0).steps)
"""


def test_fj_steps_do_not_depend_on_heap_layout(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED="0",
               XDG_CACHE_HOME=str(tmp_path))
    env["PYTHONPATH"] = str(src)
    steps = set()
    for padding in (0, 7, 1000):
        result = subprocess.run(
            [sys.executable, "-c", _LAYOUT_SCRIPT, str(padding)],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        steps.add(result.stdout.strip())
    assert len(steps) == 1, steps

"""Pushdown summarization — call/return matching as an env rep.

CFA2 and the pushdown line (Vardoulakis & Shivers; see PAPERS.md)
showed that *summarizing* function bodies per abstract entry, with
returns matched to callers through call-edge tables, beats any
finite-k context ladder on exactly the paper's §6 identity example:
``(id 3)`` and ``(id 4)`` get distinct entries whose returns never
merge, while 0CFA — and any poly-k-CFA rung once an intervening call
rotates the window — joins them.

All of the machinery lives in
:class:`~repro.analysis.kernel.SummaryEnv`, the kernel's third
environment representation; this module is only the machine's public
face, exactly parallel to :mod:`repro.analysis.flat_machine`.  The
analysis is context-free (there is no k to turn), so like 0CFA it
records parameter 0 whatever depth the caller passes.
"""

from __future__ import annotations

from repro.cps.program import Program
from repro.analysis.engine import DEFAULT_TIER, EngineOptions, \
    machine_path, run_single_store, specialize
from repro.analysis.kernel import (
    FConfig, Kernel, Recorder, SummaryEnv, result_from_run,
)
from repro.analysis.results import AnalysisResult
from repro.util.budget import Budget

__all__ = ["FConfig", "SummaryMachine", "analyze_pushdown"]


class SummaryMachine(Kernel):
    """The kernel under pushdown summarization: entry-keyed frames,
    frame-restoring continuations, name-keyed heap for escapes."""

    def __init__(self, program: Program):
        super().__init__(program, SummaryEnv(program))


def analyze_pushdown(program: Program,
                     budget: Budget | None = None,
                     tier: str = DEFAULT_TIER) -> AnalysisResult:
    """Run the pushdown-summary analysis to fixpoint.

    ``tier`` is accepted for symmetry with the other analyses, but
    the specialization stage declines the summary rep (see
    :func:`repro.analysis.specialize.specialize_machine`), so every
    run reports the ``generic`` engine path; the spec leaves the
    ``specialized`` knob off to advertise that honestly.
    """
    machine = specialize(SummaryMachine(program), tier != "generic")
    run = run_single_store(machine, Recorder(),
                           EngineOptions(budget=budget))
    result = result_from_run(run, program, "pushdown", 0)
    result.engine_path = machine_path(machine)
    return result

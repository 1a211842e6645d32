"""The analysis registry: one source of truth for every front end.

Each analysis in the repository — Scheme/CPS or Featherweight Java —
is an :class:`AnalysisSpec`: a name, the policy axis that defines it
(context abstraction, address allocation, environment representation),
the engine that drives it, its complexity class per the paper, and a
factory that runs it.  The ``analyze``/``submit`` job core
(:mod:`repro.service.jobs`), the bench matrix
(:mod:`repro.benchsuite.runner`), the CLI (including the ``analyses``
subcommand) and the docs-drift tests all dispatch off this table, so
registering a spec here is the *only* step needed to expose a new
analysis everywhere at once — there are no per-front-end dispatch
tables left to edit.

The registry is populated lazily on first use (importing the analyzer
modules is deferred into each spec's factory, so consulting the table
stays cheap for worker processes that never run some analyses).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import UsageError


@dataclass(frozen=True)
class AnalysisSpec:
    """One analysis as a data point on the kernel's policy axis.

    ``factory(program, parameter, budget, tier=..., obj_depth=...)``
    runs the analysis; ``concrete`` names the
    concrete machine mode the soundness property suite checks the
    analysis against (``shared-history``, ``flat-stack``,
    ``flat-history``, ``summary-stack`` for Scheme; ``fj`` for
    Featherweight Java).

    ``specialized`` and ``codegen`` declare which engine tiers above
    the generic loop exist for the policy (at some depth):
    ``specialized`` a per-policy staged loop
    (:mod:`repro.analysis.specialize` — k-CFA and ``fj-poly``),
    ``codegen`` generated step source with bit-parallel transfer
    (:mod:`repro.analysis.codegen` — the flat Scheme policies and
    ``fj-poly``).  Every tier is byte-identical to the generic loop,
    gated by the golden and differential suites, and a run asking for
    a tier its policy lacks falls back to the one below.
    ``context_free`` marks the analyses without a context depth
    (0CFA, pushdown): they report parameter 0 whatever depth they
    are asked for.  ``takes_obj_depth`` marks the hybrid ladder: only
    those specs accept the bench ``--obj-depth`` axis.
    """

    name: str              # CLI name, e.g. "kcfa"
    display: str           # result/display name, e.g. "k-CFA"
    language: str          # "scheme" | "fj"
    env_rep: str           # "shared" | "flat" | "summary"
    engine: str            # "single-store" | "naive" | "naive+gc"
    context: str           # the tick/alloc policy, in words
    complexity: str        # per the paper, e.g. "EXPTIME-complete"
    factory: Callable      # (program, parameter, budget, ...)
    concrete: str | None = None
    paper: str = ""        # section reference
    specialized: bool = False
    codegen: bool = False
    context_free: bool = False
    takes_obj_depth: bool = False

    def run(self, program, parameter: int, budget=None,
            tier: str | None = None, obj_depth: int | None = None):
        """Run this analysis; the parameter is the k/m/n depth.

        ``tier`` overrides the engine tier
        (:data:`~repro.analysis.engine.TIERS`; ``None`` is the
        one-shot default, ``specialized``).  ``obj_depth`` is only
        legal on hybrid-ladder specs
        (:class:`~repro.errors.UsageError` otherwise).
        """
        from repro.analysis.engine import DEFAULT_TIER, TIERS
        if obj_depth is not None and not self.takes_obj_depth:
            raise UsageError(
                f"analysis {self.name!r} has no obj-depth axis; "
                f"--obj-depth applies only to "
                f"{', '.join(_obj_depth_names()) or 'no registered analysis'}")
        tier = tier or DEFAULT_TIER
        if tier not in TIERS:
            raise ValueError(f"unknown engine tier {tier!r}; choose "
                             f"from {', '.join(TIERS)}")
        return self.factory(program, parameter, budget, tier=tier,
                            obj_depth=obj_depth)

    def reported_parameter(self, parameter: int) -> int:
        """The depth a result of this analysis reports when run at
        *parameter* (0 for the context-free analyses)."""
        return 0 if self.context_free else parameter

    def listing(self) -> dict:
        """The JSON-able registry row served by the ``analyses``
        protocol op and rendered by ``python -m repro analyses`` —
        both front ends read this same projection."""
        return {
            "name": self.name, "display": self.display,
            "language": self.language, "env_rep": self.env_rep,
            "engine": self.engine, "context": self.context,
            "complexity": self.complexity, "paper": self.paper,
            "specialized": self.specialized,
            "codegen": self.codegen,
            "takes_obj_depth": self.takes_obj_depth,
        }


def _obj_depth_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in registry().specs()
                 if spec.takes_obj_depth)


def registry_listing(language: str | None = None) -> list[dict]:
    """Every registered analysis as a JSON-able row (see
    :meth:`AnalysisSpec.listing`)."""
    return [spec.listing() for spec in registry().specs(language)]


class AnalysisRegistry:
    """An ordered name → :class:`AnalysisSpec` table."""

    def __init__(self):
        self._specs: dict[str, AnalysisSpec] = {}

    def register(self, spec: AnalysisSpec) -> AnalysisSpec:
        if spec.name in self._specs:
            raise ValueError(f"analysis {spec.name!r} already "
                             f"registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str, language: str | None = None
            ) -> AnalysisSpec:
        """Look up a spec; raises :class:`~repro.errors.UsageError`
        (exit code 2 at the CLI) with the valid choices on a miss."""
        spec = self._specs.get(name)
        if spec is not None:
            if language is None or spec.language == language:
                return spec
            raise UsageError(
                f"analysis {name!r} is a {spec.language} analysis, "
                f"not {language}; choose from "
                f"{', '.join(self.names(language))}")
        raise UsageError(
            f"unknown analysis {name!r}; choose from "
            f"{', '.join(self.names(language))}")

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def names(self, language: str | None = None) -> tuple[str, ...]:
        return tuple(spec.name for spec in self._specs.values()
                     if language is None or spec.language == language)

    def specs(self, language: str | None = None
              ) -> tuple[AnalysisSpec, ...]:
        return tuple(spec for spec in self._specs.values()
                     if language is None or spec.language == language)

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide registry.  Use :func:`registry` to read it — the
#: accessor populates the builtin analyses on first use.
REGISTRY = AnalysisRegistry()

_populated = False
_populate_lock = threading.Lock()


def registry() -> AnalysisRegistry:
    """The populated process-wide registry."""
    global _populated
    if not _populated:
        # Double-checked under a lock: concurrent first consultations
        # (library embedders calling from thread pools) must not race
        # _register_builtin against itself on the shared table.
        with _populate_lock:
            if not _populated:
                _register_builtin(REGISTRY)
                _populated = True
    return REGISTRY


def run_analysis(name: str, program, parameter: int, budget=None,
                 language: str | None = None, tier: str | None = None,
                 obj_depth: int | None = None):
    """Dispatch one analysis by registry name."""
    return registry().get(name, language).run(
        program, parameter, budget, tier=tier, obj_depth=obj_depth)


# -- the builtin analyses -------------------------------------------------
#
# Each declaration is the whole analysis: the kernel (or FJ machine)
# plus a context policy.  Factories import lazily so that touching the
# registry never pays for analyzer modules it does not run.


def _register_builtin(table: AnalysisRegistry) -> None:
    # Factories take (program, parameter, budget) positionally
    # plus the keyword-only options AnalysisSpec.run threads through:
    # ``tier`` (validated in run(); the naive drivers have a single
    # tier and ignore it) and ``obj_depth`` (hybrid ladder only —
    # validated in run()).

    def kcfa(program, parameter, budget, *, tier, obj_depth=None):
        from repro.analysis.kcfa import analyze_kcfa
        return analyze_kcfa(program, parameter, budget, tier=tier)

    def mcfa(program, parameter, budget, *, tier, obj_depth=None):
        from repro.analysis.mcfa import analyze_mcfa
        return analyze_mcfa(program, parameter, budget, tier=tier)

    def poly(program, parameter, budget, *, tier, obj_depth=None):
        from repro.analysis.polykcfa import analyze_poly_kcfa
        return analyze_poly_kcfa(program, parameter, budget, tier=tier)

    def zero(program, parameter, budget, *, tier, obj_depth=None):
        from repro.analysis.zerocfa import analyze_zerocfa
        return analyze_zerocfa(program, budget, tier=tier)

    def pushdown(program, parameter, budget, *, tier, obj_depth=None):
        from repro.analysis.pushdown import analyze_pushdown
        return analyze_pushdown(program, budget, tier=tier)

    def kcfa_gc(program, parameter, budget, *, tier, obj_depth=None):
        from repro.analysis.gc import analyze_kcfa_gc
        return analyze_kcfa_gc(program, parameter, budget)

    def kcfa_naive(program, parameter, budget, *, tier, obj_depth=None):
        from repro.analysis.kcfa import analyze_kcfa_naive
        return analyze_kcfa_naive(program, parameter, budget)

    def fj_kcfa(program, parameter, budget, *, tier, obj_depth=None):
        from repro.fj.kcfa import analyze_fj_kcfa
        return analyze_fj_kcfa(program, parameter, budget=budget)

    def fj_poly(program, parameter, budget, *, tier, obj_depth=None):
        from repro.fj.poly import analyze_fj_poly
        return analyze_fj_poly(program, parameter, budget=budget, tier=tier)

    def fj_kcfa_gc(program, parameter, budget, *, tier, obj_depth=None):
        from repro.fj.gc import analyze_fj_kcfa_gc
        return analyze_fj_kcfa_gc(program, parameter, budget=budget)

    def fj_mcfa(program, parameter, budget, *, tier, obj_depth=None):
        from repro.fj.mcfa import analyze_fj_mcfa
        return analyze_fj_mcfa(program, parameter, budget=budget, tier=tier)

    def fj_hybrid(program, parameter, budget, *, tier, obj_depth=None):
        from repro.fj.hybrid import analyze_fj_hybrid
        return analyze_fj_hybrid(
            program, parameter,
            obj_depth=1 if obj_depth is None else obj_depth,
            budget=budget, tier=tier)

    def fj_obj(program, parameter, budget, *, tier, obj_depth=None):
        from repro.fj.hybrid import analyze_fj_obj
        return analyze_fj_obj(program, parameter, budget=budget, tier=tier)

    table.register(AnalysisSpec(
        name="kcfa", display="k-CFA", language="scheme",
        env_rep="shared", engine="single-store",
        context="tick: last k call sites; alloc: (var, time)",
        complexity="EXPTIME-complete (k >= 1)", factory=kcfa,
        concrete="shared-history", paper="§3.4–3.7",
        # Shared environments: addresses are (var, context) with
        # run-time contexts, so the emitter has no constants to fold
        # beyond what CompiledSharedKernel pre-binds — no codegen.
        specialized=True))
    # The flat Scheme policies: no staged loop beat the generic
    # kernel, so their only tier above it is generated source.
    table.register(AnalysisSpec(
        name="mcfa", display="m-CFA", language="scheme",
        env_rep="flat", engine="single-store",
        context="alloc: top-m stack frames, continuations restore",
        complexity="PTIME", factory=mcfa,
        concrete="flat-stack", paper="§5.2–5.3", codegen=True))
    table.register(AnalysisSpec(
        name="poly", display="poly-k-CFA", language="scheme",
        env_rep="flat", engine="single-store",
        context="alloc: last k call sites (every call rotates)",
        complexity="PTIME", factory=poly,
        concrete="flat-history", paper="§6", codegen=True))
    table.register(AnalysisSpec(
        name="zero", display="0CFA", language="scheme",
        env_rep="flat", engine="single-store",
        context="no context: [m=0]CFA == [k=0]CFA",
        complexity="PTIME", factory=zero,
        concrete="flat-stack", paper="§5.3", codegen=True,
        context_free=True))
    table.register(AnalysisSpec(
        name="pushdown", display="pushdown", language="scheme",
        env_rep="summary", engine="single-store",
        context="entry summaries keyed on argument values; "
                "call-edge tables, continuations restore frames",
        complexity="PTIME (polynomial entry table)", factory=pushdown,
        concrete="summary-stack", paper="§6 / CFA2",
        # No staged loop for the summary rep, and no codegen: entry
        # summaries key on run-time argument signatures, so nothing
        # folds to literals — asserted in tests/test_pushdown.py.
        context_free=True))
    table.register(AnalysisSpec(
        name="kcfa-gc", display="k-CFA+GC", language="scheme",
        env_rep="shared", engine="naive+gc",
        context="tick: last k call sites; abstract GC per transition",
        complexity="EXPTIME (per-state stores)", factory=kcfa_gc,
        concrete="shared-history", paper="§8 / ΓCFA"))
    table.register(AnalysisSpec(
        name="kcfa-naive", display="k-CFA-naive", language="scheme",
        env_rep="shared", engine="naive",
        context="tick: last k call sites; reachable-states driver",
        complexity="EXPTIME even for k=0", factory=kcfa_naive,
        concrete="shared-history", paper="§3.6"))
    table.register(AnalysisSpec(
        name="fj-kcfa", display="FJ-k-CFA", language="fj",
        env_rep="shared", engine="single-store",
        context="tick: last k labels at invocations (Figure 9)",
        complexity="PTIME (objects close flat)", factory=fj_kcfa,
        concrete="fj", paper="§4.3"))
    table.register(AnalysisSpec(
        name="fj-poly", display="FJ-poly-k-CFA", language="fj",
        env_rep="flat", engine="single-store",
        context="benv collapsed to its time (BEnv ~ Time)",
        complexity="PTIME", factory=fj_poly,
        concrete="fj", paper="§4.4",
        # Both tiers at k = 0 only (the receiver-insensitive
        # context-free policy); deeper runs are generic.
        specialized=True, codegen=True))
    table.register(AnalysisSpec(
        name="fj-kcfa-gc", display="FJ-k-CFA+GC", language="fj",
        env_rep="shared", engine="naive+gc",
        context="Figure 9 ticks; abstract GC per transition",
        complexity="per-state stores", factory=fj_kcfa_gc,
        concrete="fj", paper="§8"))
    # Receiver-sensitive flat FJ: per-receiver times mean the
    # per-statement addresses are not compile-time constants, so
    # neither the specializer nor the emitter covers these three.
    table.register(AnalysisSpec(
        name="fj-mcfa", display="FJ-m-CFA", language="fj",
        env_rep="flat", engine="single-store",
        context="top-m stack frames; this re-bound by field copying",
        complexity="PTIME", factory=fj_mcfa,
        concrete="fj", paper="§5 transplanted to §4"))
    table.register(AnalysisSpec(
        name="fj-hybrid", display="FJ-hybrid", language="fj",
        env_rep="flat", engine="single-store",
        context="receiver alloc site + last call sites (ladder)",
        complexity="PTIME", factory=fj_hybrid,
        concrete="fj", paper="§8 (object sensitivity)",
        takes_obj_depth=True))
    table.register(AnalysisSpec(
        name="fj-obj", display="FJ-obj", language="fj",
        env_rep="flat", engine="single-store",
        context="receiver allocation chain, depth n (obj^n)",
        complexity="PTIME", factory=fj_obj,
        concrete="fj", paper="§8 (object sensitivity)"))
